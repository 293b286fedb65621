"""Pipeline orchestration and report emission.

A run writes one directory of CSV artifacts mirroring the study's tables:
per-input metric scores, per-point accuracies, a summary with best accuracy
and resource utilization per (configuration, metric), the C2-at-C3-budget
comparison, metric timing, and per-configuration plot data. Every table is
written by `write_table`, never read to make another. Reports are
byte-deterministic for a fixed configuration except timing.csv and the
manifest. The report stage reads points.npz alone, M's Test* accuracy
included. A consistency pass reads summary.csv back with `read_table` and
rebuilds every row with `summary_row`, which wrote it, from the records
read back from points.npz, before the manifest is sealed. The score and
report stages remove the CSVs of metrics and configurations the config
leaves out, so <out> never mixes two configs' tables.

The score, retrain and report stages below, with stages.py's spine, are
the one implementation of each stage: `run_pipeline` and the CLI's stage
commands hand them one `stages.Spine` and nothing else, and
`compute_trend` makes one `run_pipeline` call per seed.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager
from dataclasses import astuple, dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from ._blas import blas_runtime
from .config import ExperimentConfig, config_echo, with_overrides
from .metrics import METRICS
from .retrain import CONFIG_KINDS, ExperimentRecord, RetrainBatch, compare_records
from .stages import MODEL_FILE, POINTS_FILE, SCORES_FILE, SETS_FILE, Spine, prepare_data

POINTS_CSV = "points.csv"
SUMMARY_CSV = "summary.csv"
COMPARISON_CSV = "comparison.csv"
TIMING_CSV = "timing.csv"
MANIFEST = "manifest.txt"
TREND_CSV = "trend.csv"
TREND_SUMMARY_CSV = "trend_summary.csv"


@dataclass
class ReportBundle:
    out_dir: Path
    original_accuracy: float
    records: list


# ------------------------------------------------------------- CSV tables


def write_table(path, header: str, rows) -> None:
    """The header line, then one line per row: its fields' str(), comma
    separated. Every row is formatted before the file is opened, so a row
    that fails to format leaves an existing file untouched."""
    lines = [header + "\n"] + [",".join(map(str, row)) + "\n" for row in rows]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)


def read_table(path) -> list[dict]:
    """{column: text} per row. A line whose field count differs from the
    header's is refused, naming the path and the line."""
    with open(path, "r", encoding="utf-8") as fh:
        columns, *rows = [line.split(",") for line in fh.read().splitlines()] or [[""]]
    for number, fields in enumerate(rows, start=2):
        if len(fields) != len(columns):
            raise ValueError(f"{path} line {number} has {len(fields)} fields, "
                             f"its header {len(columns)}")
    return [dict(zip(columns, fields)) for fields in rows]


def format_duration(seconds: float) -> str:
    """hh:mm:ss, zero padded, whole seconds (sub-second durations show 00:00:00)."""
    if seconds < 0:
        raise ValueError("negative duration")
    total = int(seconds)
    return f"{total // 3600:02d}:{total % 3600 // 60:02d}:{total % 60:02d}"


def scores_to_csv(metric: str, values, path) -> None:
    """input_id,metric,value rows, one per row id, values at 9 significant digits."""
    values = np.asarray(values, dtype=np.float64).tolist()
    write_table(path, "input_id,metric,value", ((i, metric, f"{v:.9g}") for i, v in enumerate(values)))


def write_points_csv(records, path) -> None:
    write_table(path, "config,metric,point_index,input_size,pool_total,"
                      "accuracy_test_star,accuracy_test,accuracy_adv_test",
                ((rec.kind, rec.metric, r.point_index, r.input_size, rec.pool_total,
                  r.accuracy_test_star, r.accuracy_test, r.accuracy_adv_test)
                 for rec in records for r in rec.runs))


SUMMARY_HEADER = ("config,metric,original_accuracy,best_accuracy,inputs_at_best,pool_total,"
                  "resource,resource_utilization")


def summary_row(rec: ExperimentRecord) -> tuple[str, ...]:
    """The summary.csv fields of one record; a bad resource ratio is refused."""
    return (rec.kind, rec.metric, f"{rec.original_accuracy:.3f}", f"{rec.best_accuracy:.3f}",
            str(rec.best_input_size), str(rec.pool_total), rec.resource_string(),
            f"{rec.resource_utilization:.4f}")


def write_summary_csv(records, path) -> None:
    write_table(path, SUMMARY_HEADER, map(summary_row, records))


def write_comparison_csv(rows, path) -> None:
    write_table(path, "config,metric,accuracy,inputs_used,pool_total,resource,flagged",
                ((row.kind, row.metric, f"{row.accuracy:.3f}", row.inputs_used, row.pool_total,
                  row.resource_string(), int(row.flagged)) for row in rows))


def write_timing_csv(timings, path) -> None:
    """timings: sequence of (metric, wall seconds)."""
    write_table(path, "metric,seconds,duration",
                ((metric, f"{seconds:.9g}", format_duration(seconds)) for metric, seconds in timings))


def write_plot_csvs(records, out_dir: Path) -> dict:
    """One CSV per configuration: metric,input_size,accuracy_test_star."""
    paths = {}
    for kind in sorted({rec.kind for rec in records}):
        paths[kind] = out_dir / f"plot_{kind.lower()}.csv"
        write_table(paths[kind], "metric,input_size,accuracy_test_star",
                    sorted((rec.metric, r.input_size, r.accuracy_test_star)
                           for rec in records if rec.kind == kind for r in rec.runs))
    return paths


def consistency_problems(records, summary_path) -> list[str]:
    """Rebuild every summary row from the per-point records with
    summary_row; list the fields of summary_path that differ."""
    by_key = {(rec.kind, rec.metric): rec for rec in records}
    problems = []
    for row in read_table(summary_path):
        key = (row.get("config"), row.get("metric"))
        if key not in by_key:
            problems.append(f"{key}: summary row without per-point rows")
            continue
        problems += [f"{key}: {column} is {row.get(column)}, recomputed {text}"
                     for column, text in zip(SUMMARY_HEADER.split(","), summary_row(by_key[key]))
                     if row.get(column) != text]
    return problems


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def write_manifest(out_dir: Path, cfg: ExperimentConfig, files: dict, status: str,
                   stage_seconds: dict, runtime: dict) -> Path:
    """`runtime` adds lines to the [runtime] section after the BLAS and
    numpy_version ones."""
    path = out_dir / MANIFEST
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"status = {status}\n")
        fh.write(f"created_utc = {datetime.now(timezone.utc).isoformat()}\n")
        fh.write("[config]\n")
        fh.writelines(line + "\n" for line in config_echo(cfg))
        fh.write("[files]\n")
        for name in sorted(files):
            fh.write(f"{sha256_file(files[name])}  {name}\n")
        fh.write("[runtime]\n")
        for key, value in {**blas_runtime(), "numpy_version": np.__version__,
                           **runtime}.items():
            fh.write(f"{key} = {value}\n")
        if stage_seconds:  # last: readers take everything after [timings]
            fh.write("[timings]\n")
            for stage in sorted(stage_seconds):
                fh.write(f"{stage}_seconds = {stage_seconds[stage]:.3f}\n")
    return path


# ------------------------------------------------------------- the stages


def score_stage(spine: Spine) -> tuple[dict, dict]:
    """({metric: (values, seconds)}, {file name: path}) of the configured
    metrics (see Spine.scores), written to scores_<metric>.csv and
    timing.csv; the scores_<metric>.csv of every other metric is removed."""
    out = spine.out
    scored = spine.scores
    files = {SCORES_FILE: out / SCORES_FILE}
    for metric in METRICS:
        path = out / f"scores_{metric.lower()}.csv"
        if metric in scored:
            scores_to_csv(metric, scored[metric][0], path)
            files[path.name] = path
        else:
            path.unlink(missing_ok=True)
    write_timing_csv([(m, seconds) for m, (_, seconds) in scored.items()], out / TIMING_CSV)
    files[TIMING_CSV] = out / TIMING_CSV
    return scored, files


def retrain_stage(spine: Spine) -> tuple[RetrainBatch, dict]:
    """(batch, {file name: path}) of every configured (configuration,
    metric) sweep (see Spine.points), written to points.csv."""
    batch = spine.points
    write_points_csv(batch.records, spine.out / POINTS_CSV)
    return batch, {POINTS_CSV: spine.out / POINTS_CSV, POINTS_FILE: spine.out / POINTS_FILE}


def report_stage(spine: Spine) -> tuple[list, dict]:
    """(records, {file name: path}): summary, comparison and plot CSVs from
    the spine's points, the summary checked against the records read back
    from points.npz, raising on any mismatch; the plot CSV of every other
    configuration is removed. Nothing but points.npz is read: one that is
    not fresh or lacks a pair is refused."""
    out = spine.out
    stored, why = spine.stored_points()
    if stored is None:
        raise ValueError(f"cannot report from {out / POINTS_FILE} ({why}); "
                         f"run `retrain` or `run` first")
    records = list(spine.points.records)  # fresh, so loaded unless retrained in this spine
    write_summary_csv(records, out / SUMMARY_CSV)
    write_comparison_csv(compare_records(records), out / COMPARISON_CSV)
    files = {SUMMARY_CSV: out / SUMMARY_CSV, COMPARISON_CSV: out / COMPARISON_CSV}
    plots = write_plot_csvs(records, out)
    for kind in CONFIG_KINDS:
        if kind in plots:
            files[plots[kind].name] = plots[kind]
        else:
            (out / f"plot_{kind.lower()}.csv").unlink(missing_ok=True)
    problems = consistency_problems(stored, out / SUMMARY_CSV)
    if problems:
        raise AssertionError("summary inconsistent with per-point data: " + "; ".join(problems))
    return records, files


# ------------------------------------------------------------- pipeline


def run_pipeline(cfg: ExperimentConfig) -> ReportBundle:
    """Full run: train or load M, attack, score, sweep, report.

    On a stage failure the manifest is still written with a failure marker
    naming the stage, partial outputs left in place, and the error re-raised.
    """
    spine = Spine(cfg)
    out_dir = spine.out
    out_dir.mkdir(parents=True, exist_ok=True)
    files: dict = {}
    stage_seconds: dict = {}
    runtime: dict = {}
    stage = "data"

    @contextmanager
    def timed(name: str):
        nonlocal stage
        stage, t = name, time.monotonic()
        yield
        stage_seconds[name] = time.monotonic() - t

    try:
        with timed("data"):
            spine.data = prepare_data(cfg)  # prepared here, so the data stage is timed alone
        with timed("train"):
            spine.model  # loads M, or trains it when model.grcnn is not fresh
            runtime["model"] = "trained" if spine.trained else "loaded"
            files[MODEL_FILE] = out_dir / MODEL_FILE
        with timed("attack"):
            spine.sets  # loads the sets, or builds them when sets.npz is not fresh
            files[SETS_FILE] = out_dir / SETS_FILE
        with timed("score"):
            files.update(score_stage(spine)[1])
        with timed("retrain"):
            batch, written = retrain_stage(spine)
            files.update(written)
            runtime.update(retrain_workers=batch.workers,
                           retrain_worker_cpu_seconds=f"{batch.worker_cpu_seconds:.3f}")
        with timed("report"):
            records, written = report_stage(spine)
            files.update(written)
    except Exception:
        write_manifest(out_dir, cfg, files, f"failed: {stage}", stage_seconds, runtime)
        raise
    write_manifest(out_dir, cfg, files, "ok", stage_seconds, runtime)
    return ReportBundle(out_dir, records[0].original_accuracy, records)  # one M for every pair


# ------------------------------------------------------------- trend report


@dataclass(frozen=True)
class TrendRow:
    seed: int
    metric: str
    final_accuracy: float
    size_at_95pct: int


@dataclass
class TrendReport:
    rows: list
    mean_sa_best: float
    mean_random: float
    sa_reaches_with_fewer_inputs: bool


def size_at_fraction_of_final(runs, fraction: float = 0.95) -> int:
    """Smallest sweep size whose accuracy reaches fraction * final accuracy."""
    final = runs[-1].accuracy_test_star
    threshold = fraction * final
    for r in runs:
        if r.accuracy_test_star >= threshold:
            return r.input_size
    return runs[-1].input_size


def compute_trend(cfg: ExperimentConfig, seeds, out_dir) -> TrendReport:
    """SA-vs-Random comparison under C2 across seeds.

    For every seed, `run_pipeline` makes <out_dir>/seed-<seed>/ a full run
    directory (M, the augmented sets, the LSA, DSA and Random scores, the C2
    sweeps and their reports); fresh sets and scores found there are reused.
    Each sweep gives the smallest input size reaching 95% of its curve's
    final accuracy. The report compares the mean over seeds of the better SA
    metric against Random and is emitted regardless of which side wins.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows: list[TrendRow] = []
    sa_sizes = []
    random_sizes = []
    for seed in seeds:
        run_cfg = with_overrides(
            cfg,
            out=str(out_dir / f"seed-{seed}"),
            metrics=("LSA", "DSA", "RANDOM"),
            configs=("C2",),
            synthetic_seed=seed,
            seed_init=seed + 1,
            seed_shuffle=seed + 2,
            seed_attack=seed + 3,
            seed_random_metric=seed + 4,
        )
        per_metric = {}
        for metric, record in zip(run_cfg.metrics, run_pipeline(run_cfg).records):
            size = size_at_fraction_of_final(record.runs)
            per_metric[metric] = size
            rows.append(TrendRow(seed=seed, metric=metric,
                                 final_accuracy=record.runs[-1].accuracy_test_star,
                                 size_at_95pct=size))
        sa_sizes.append(min(per_metric["LSA"], per_metric["DSA"]))
        random_sizes.append(per_metric["RANDOM"])
    mean_sa = sum(sa_sizes) / len(sa_sizes)
    mean_random = sum(random_sizes) / len(random_sizes)
    report = TrendReport(rows=rows, mean_sa_best=mean_sa, mean_random=mean_random,
                         sa_reaches_with_fewer_inputs=mean_sa <= mean_random)
    write_table(out_dir / TREND_CSV, "seed,metric,final_accuracy,size_at_95pct", map(astuple, rows))
    write_table(out_dir / TREND_SUMMARY_CSV, "quantity,value", (
        ("mean_size_at_95pct_sa_best", mean_sa),
        ("mean_size_at_95pct_random", mean_random),
        ("sa_reaches_with_fewer_inputs", int(report.sa_reaches_with_fewer_inputs))))
    return report
