import numpy as np
import pytest

from guidedretrain.config import ConfigError, ExperimentConfig, parse_config
from guidedretrain.reports import (
    COMPARISON_CSV,
    POINTS_CSV,
    SUMMARY_CSV,
    TIMING_CSV,
    compute_trend,
    consistency_problems,
    read_table,
    run_pipeline,
    sha256_file,
    write_comparison_csv,
    write_plot_csvs,
    write_summary_csv,
)
from guidedretrain.retrain import ComparisonRow, ExperimentRecord, RetrainRun


def mini_config(out, **overrides) -> ExperimentConfig:
    base = dict(
        synthetic_classes=4,
        synthetic_per_class_train=30,
        synthetic_per_class_test=10,
        synthetic_image_size=8,
        synthetic_noise_sigma=1.0,
        train_epochs=3,
        retrain_epochs=1,
        attack_fraction=0.5,
        metrics=("RANDOM", "NC"),
        configs=("C2", "C3"),
        out=str(out),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture
def in_process(monkeypatch):
    """GR_THREADS=1: the sweep points run in the test's own process."""
    monkeypatch.setenv("GR_THREADS", "1")


DETERMINISTIC_FILES = (POINTS_CSV, SUMMARY_CSV, COMPARISON_CSV, "plot_c2.csv", "plot_c3.csv",
                       "scores_random.csv", "scores_nc.csv", "model.grcnn")


def test_pipeline_produces_reports(tmp_path, in_process):
    cfg = mini_config(tmp_path / "out")
    bundle = run_pipeline(cfg)
    out = bundle.out_dir
    for name in DETERMINISTIC_FILES + (TIMING_CSV, "manifest.txt"):
        assert (out / name).exists(), name

    points = (out / POINTS_CSV).read_text().splitlines()
    assert points[0].startswith("config,metric,point_index")
    assert len(points) == 1 + 2 * 2 * 20  # 2 configs x 2 metrics x 20 points

    summary = (out / SUMMARY_CSV).read_text().splitlines()
    assert len(summary) == 1 + 4
    header = summary[0].split(",")
    assert "original_accuracy" in header and "resource" in header

    plot = (out / "plot_c2.csv").read_text().splitlines()
    assert len(plot) == 1 + 2 * 20  # 2 metrics x 20 points
    rows = [line.split(",") for line in plot[1:]]
    assert rows == sorted(rows, key=lambda r: (r[0], int(r[1])))
    for r in rows:
        assert 0.0 <= float(r[2]) <= 1.0

    timing = (out / TIMING_CSV).read_text().splitlines()
    assert timing[0] == "metric,seconds,duration"
    assert len(timing) == 1 + 2
    for line in timing[1:]:
        metric, seconds, duration = line.split(",")
        assert float(seconds) >= 0.0
        assert len(duration) == 8 and duration.count(":") == 2


def test_pipeline_deterministic_reports(tmp_path, in_process):
    a = run_pipeline(mini_config(tmp_path / "a"))
    b = run_pipeline(mini_config(tmp_path / "b"))
    for name in DETERMINISTIC_FILES:
        assert (a.out_dir / name).read_bytes() == (b.out_dir / name).read_bytes(), name


def test_pipeline_parallel_matches_sequential(tmp_path, monkeypatch):
    monkeypatch.setenv("GR_THREADS", "1")
    a = run_pipeline(mini_config(tmp_path / "a"))
    monkeypatch.setenv("GR_THREADS", "3")
    b = run_pipeline(mini_config(tmp_path / "b"))
    for name in (POINTS_CSV, SUMMARY_CSV):
        assert (a.out_dir / name).read_bytes() == (b.out_dir / name).read_bytes(), name


def test_manifest_hashes_match_files(tmp_path, in_process):
    bundle = run_pipeline(mini_config(tmp_path / "out"))
    manifest = (bundle.out_dir / "manifest.txt").read_text().splitlines()
    assert manifest[0] == "status = ok"
    in_files = False
    checked = 0
    for line in manifest:
        if line == "[files]":
            in_files = True
            continue
        if line.startswith("[") and line != "[files]":
            in_files = False
            continue
        if in_files:
            digest, name = line.split("  ", 1)
            assert sha256_file(bundle.out_dir / name) == digest, name
            checked += 1
    assert checked >= len(DETERMINISTIC_FILES)


def test_pipeline_failure_marker(tmp_path, in_process):
    cfg = mini_config(tmp_path / "out", dataset="idx",
                      idx_train_images="missing", idx_train_labels="missing",
                      idx_test_images="missing", idx_test_labels="missing")
    with pytest.raises(FileNotFoundError):
        run_pipeline(cfg)
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    assert "status = failed: data" in manifest


def test_summary_renders_resource_both_ways(tmp_path):
    # a hand-built record renders its ratio as "14400/36366" and 0.3960
    runs = tuple(
        RetrainRun("C2", "DSA", i, size, acc, acc, acc, 0.0)
        for i, (size, acc) in enumerate([(10800, 0.91), (14400, 0.953), (36366, 0.95)])
    )
    record = ExperimentRecord("C2", "DSA", runs, 36366, 0.589)
    assert (record.best_accuracy, record.best_input_size) == (0.953, 14400)
    assert record.resource_utilization == 14400 / 36366
    path = tmp_path / "summary.csv"
    write_summary_csv([record], path=path)
    text = path.read_text()
    assert "14400/36366" in text
    assert "0.3960" in text
    assert "0.589" in text
    assert "0.953" in text


def test_consistency_detects_mismatch(tmp_path):
    summary = tmp_path / "summary.csv"
    runs = (RetrainRun("C2", "DSA", 0, 10, 0.5, 0.5, 0.5, 0.0),
            RetrainRun("C2", "DSA", 1, 20, 0.7, 0.7, 0.7, 0.0))
    records = [ExperimentRecord("C2", "DSA", runs, 20, 0.4)]
    summary.write_text(
        "config,metric,original_accuracy,best_accuracy,inputs_at_best,"
        "pool_total,resource,resource_utilization\n"
        "C2,DSA,0.400,0.700,20,20,20/20,1.0000\n")
    assert consistency_problems(records, summary) == []
    summary.write_text(
        "config,metric,original_accuracy,best_accuracy,inputs_at_best,"
        "pool_total,resource,resource_utilization\n"
        "C2,DSA,0.400,0.900,20,20,20/20,1.0000\n")
    assert any("best_accuracy" in p for p in consistency_problems(records, summary))
    # M's accuracy is checked against the one the records carry
    summary.write_text(
        "config,metric,original_accuracy,best_accuracy,inputs_at_best,"
        "pool_total,resource,resource_utilization\n"
        "C2,DSA,0.500,0.700,20,20,20/20,1.0000\n")
    assert consistency_problems(records, summary) == [
        "('C2', 'DSA'): original_accuracy is 0.500, recomputed 0.400"]


def test_a_row_that_fails_to_format_leaves_the_file_untouched(tmp_path):
    class UnformattableRow(ComparisonRow):
        def resource_string(self):
            raise ValueError("bad resource ratio 30/20")

    path = tmp_path / "comparison.csv"
    path.write_text("earlier bytes\n")
    rows = [ComparisonRow("C2", "NC", 0.5, 10, 20, False),
            UnformattableRow("C3", "NC", 0.5, 30, 20, False)]
    with pytest.raises(ValueError, match="bad resource ratio"):
        write_comparison_csv(rows, path)
    assert path.read_text() == "earlier bytes\n"


def test_read_table_refuses_a_line_of_another_width(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("a,b,c\n1,2,3\n4,5\n")
    with pytest.raises(ValueError, match=f"{path} line 3 has 2 fields, its header 3"):
        read_table(path)
    path.write_text("a,b,c\n1,2,3\n")
    assert read_table(path) == [{"a": "1", "b": "2", "c": "3"}]


def test_trend_report_smoke(tmp_path):
    cfg = mini_config(tmp_path / "out", synthetic_per_class_train=20,
                      synthetic_per_class_test=8, train_epochs=2)
    report = compute_trend(cfg, seeds=[5, 6], out_dir=tmp_path / "out")
    assert len(report.rows) == 2 * 3  # 2 seeds x (LSA, DSA, RANDOM)
    assert report.mean_sa_best > 0
    assert report.mean_random > 0
    assert isinstance(report.sa_reaches_with_fewer_inputs, bool)
    trend = (tmp_path / "out" / "trend.csv").read_text().splitlines()
    assert trend[0] == "seed,metric,final_accuracy,size_at_95pct"
    assert len(trend) == 1 + 6
    summary = (tmp_path / "out" / "trend_summary.csv").read_text()
    assert "mean_size_at_95pct_sa_best" in summary
    assert "sa_reaches_with_fewer_inputs" in summary


def test_config_parsing_round_trip():
    text = """
    # comment
    dataset = synthetic
    synthetic.per_class_train = 40
    metrics = dsa, random
    configs = C2
    seed.init = 99
    out = results
    """
    cfg = parse_config(text)
    assert cfg.synthetic_per_class_train == 40
    assert cfg.metrics == ("DSA", "RANDOM")
    assert cfg.configs == ("C2",)
    assert cfg.seed_init == 99
    assert cfg.out == "results"


def test_config_rejects_unknown_and_bad_values():
    with pytest.raises(ConfigError):
        parse_config("nonsense = 1")
    with pytest.raises(ConfigError):
        parse_config("train.epochs = many")
    with pytest.raises(ConfigError):
        parse_config("metrics = XYZ")
    with pytest.raises(ConfigError):
        parse_config("dataset = idx")  # missing file paths
    with pytest.raises(ConfigError):
        parse_config("out = a\nout = b")


def test_plot_csvs_four_metrics_c1(tmp_path, in_process):
    cfg = mini_config(tmp_path / "out", metrics=("LSA", "DSA", "NC", "RANDOM"), configs=("C1",),
                      synthetic_per_class_train=20, synthetic_per_class_test=8, train_epochs=2)
    bundle = run_pipeline(cfg)
    paths = write_plot_csvs(bundle.records, bundle.out_dir)
    rows = (paths["C1"]).read_text().splitlines()
    assert len(rows) == 1 + 4 * 20  # 4 metrics x 20 points


def test_single_metric_single_config_points(tmp_path, in_process):
    cfg = mini_config(tmp_path / "out", metrics=("RANDOM",), configs=("C3",),
                      synthetic_per_class_train=20, synthetic_per_class_test=8, train_epochs=1)
    bundle = run_pipeline(cfg)
    lines = (bundle.out_dir / POINTS_CSV).read_text().splitlines()
    assert len(lines) == 1 + 20
