import hashlib
import os
import re
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from guidedretrain import _blas, cli
from guidedretrain.cli import main
from guidedretrain.attack import build_augmented_sets
from guidedretrain.config import ExperimentConfig, config_echo, parse_config, with_overrides
from guidedretrain.data import generate_synthetic, load_idx_dataset, save_idx_dataset
from guidedretrain.metrics import (
    TRACE_METRICS,
    _trace_metric_values,
    dsa_from_traces,
    fit_dsa,
    fit_lsa,
    guidance_layers,
    lsa_scores,
    nc_scores,
    random_scores,
    score_metrics,
)
from guidedretrain.model import (ForwardPass, build_model, desk_architecture, forward_pass,
                                 load_model, model_bytes)
from guidedretrain.reports import compute_trend, read_table, run_pipeline
from guidedretrain.stages import Spine, prepare_data

MINI_CONFIG = """
synthetic.per_class_train = 30
synthetic.per_class_test = 10
synthetic.image_size = 8
train.epochs = 3
retrain.epochs = 1
attack.fraction = 0.5
metrics = RANDOM,NC
configs = C2,C3
"""


def write_config(tmp_path, extra=""):
    path = tmp_path / "experiment.cfg"
    path.write_text(MINI_CONFIG + extra)
    return path


def test_run_subcommand_end_to_end(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "C2/RANDOM" in captured and "C3/NC" in captured
    for name in ("points.csv", "summary.csv", "comparison.csv", "timing.csv",
                 "plot_c2.csv", "plot_c3.csv", "manifest.txt", "model.grcnn"):
        assert (out / name).exists(), name


def test_run_twice_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out_b)]) == 0
    for name in ("points.csv", "summary.csv", "comparison.csv",
                 "plot_c2.csv", "plot_c3.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_train_then_score_reuses_model(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    model_bytes = (out / "model.grcnn").read_bytes()
    assert main(["score", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "model.grcnn").read_bytes() == model_bytes  # untouched
    assert (out / "scores_random.csv").exists()
    assert (out / "scores_nc.csv").exists()
    assert (out / "timing.csv").exists()


def test_attack_exports_loadable_idx(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["attack", "--config", str(cfg), "--out", str(out)]) == 0
    adv_train = load_idx_dataset(out / "adv_train-images-idx3-ubyte",
                                 out / "adv_train-labels-idx1-ubyte")
    assert len(adv_train) == 60  # fraction 0.5 of 120
    adv_test = load_idx_dataset(out / "adv_test-images-idx3-ubyte",
                                out / "adv_test-labels-idx1-ubyte")
    assert len(adv_test) == 40


def test_retrain_then_report_rebuilds_summary(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    summary_from_run = (out / "summary.csv").read_bytes()
    (out / "summary.csv").unlink()
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "summary.csv").read_bytes() == summary_from_run


def test_report_without_points_fails(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["report", "--config", str(cfg), "--out", str(tmp_path / "empty")]) == 1


def test_bad_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("who = knows\n")
    assert main(["run", "--config", str(bad)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_negative_trend_seeds_refused_while_parsing(tmp_path, capsys):
    # refused before the config is read or <out> is looked at
    with pytest.raises(SystemExit) as exit_info:
        main(["report", "--out", str(tmp_path / "out"), "--trend-seeds", "-2"])
    assert exit_info.value.code == 2
    assert "--trend-seeds: must be >= 0, got -2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_seed_override_changes_model(tmp_path):
    cfg = write_config(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["train", "--config", str(cfg), "--out", str(out_a), "--seed-init", "1"]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(out_b), "--seed-init", "2"]) == 0
    a, _ = load_model(out_a / "model.grcnn")
    b, _ = load_model(out_b / "model.grcnn")
    assert any(not np.array_equal(a.parameters[k], b.parameters[k]) for k in a.parameters)


def test_retrain_scores_each_metric_once(tmp_path, monkeypatch):
    from guidedretrain import metrics, retrain

    scorings = Counter()
    timed_scoring = metrics.timed_scoring

    def counting(metric, *args, **kwargs):
        scorings[metric] += 1
        return timed_scoring(metric, *args, **kwargs)

    monkeypatch.setattr(metrics, "timed_scoring", counting)
    monkeypatch.setattr(retrain, "timed_scoring", counting)
    cfg = write_config(tmp_path)  # configs = C2,C3
    assert main(["retrain", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert scorings == {"RANDOM": 1, "NC": 1}


# every metric and configuration, so each file of the byte-identity set is written
ALL_CONFIG = """
synthetic.per_class_train = 30
synthetic.per_class_test = 10
synthetic.image_size = 8
train.epochs = 3
retrain.epochs = 1
attack.fraction = 0.5
"""
BYTE_IDENTITY_SET = (["points.csv", "summary.csv", "comparison.csv"]
                     + [f"plot_c{k}.csv" for k in (1, 2, 3)]
                     + [f"scores_{m}.csv" for m in ("lsa", "dsa", "nc", "random")])


def assert_same_bytes(a, b):
    for name in BYTE_IDENTITY_SET:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def manifest_runtime(out):
    """The [runtime] lines of a run's manifest; fails unless [timings] follows."""
    manifest = (out / "manifest.txt").read_text()
    runtime, _ = manifest.split("[runtime]\n", 1)[1].split("[timings]\n", 1)
    return dict(line.split(" = ", 1) for line in runtime.splitlines())


def test_fan_out_writes_the_sequential_bytes(tmp_path, monkeypatch):
    cfg = tmp_path / "all.cfg"
    cfg.write_text(ALL_CONFIG)
    monkeypatch.setenv("GR_THREADS", "1")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "sequential")]) == 0
    monkeypatch.setenv("GR_THREADS", "2")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "fan-out")]) == 0
    assert_same_bytes(tmp_path / "sequential", tmp_path / "fan-out")
    sequential = manifest_runtime(tmp_path / "sequential")
    assert sequential["retrain_workers"] == "1"
    assert sequential["retrain_worker_cpu_seconds"] == "0.000"
    fan_out = manifest_runtime(tmp_path / "fan-out")
    assert fan_out["retrain_workers"] == "2"
    assert float(fan_out["retrain_worker_cpu_seconds"]) > 0


def test_without_fork_the_run_is_sequential_and_writes_the_same_bytes(tmp_path, monkeypatch):
    import concurrent.futures
    import multiprocessing

    cfg = tmp_path / "all.cfg"
    cfg.write_text(ALL_CONFIG)
    monkeypatch.setenv("GR_THREADS", "2")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "pooled")]) == 0

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "no-fork")]) == 0
    assert_same_bytes(tmp_path / "pooled", tmp_path / "no-fork")
    assert manifest_runtime(tmp_path / "no-fork")["retrain_workers"] == "1"


def test_failing_point_in_a_worker_is_named(tmp_path, monkeypatch, capsys):
    from guidedretrain import retrain

    real = retrain.retrain_point

    def failing(kind, start, pool, size, hp, point_index, eval_sets, metric=""):
        if (kind, metric, point_index) == ("C3", "NC", 7):
            raise ValueError(f"broken in process {os.getpid()}")
        return real(kind, start, pool, size, hp, point_index, eval_sets, metric=metric)

    monkeypatch.setattr(retrain, "retrain_point", failing)  # forked workers inherit it
    monkeypatch.setenv("GR_THREADS", "2")
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "C3/NC point 7" in err
    assert int(re.search(r"broken in process (\d+)", err).group(1)) != os.getpid()
    assert "status = failed: retrain" in (out / "manifest.txt").read_text()


def test_too_small_sweep_pool_is_named(tmp_path, monkeypatch, capsys):
    # 5 % of the mini config's 120 Train rows is a 6-row Adv-Train, C3's pool;
    # the data stage refuses it before M is trained
    from guidedretrain import stages

    trained = []
    real = stages.train_original
    monkeypatch.setattr(stages, "train_original",
                        lambda *args: trained.append(args) or real(*args))
    cfg = tmp_path / "small.cfg"
    cfg.write_text(MINI_CONFIG.replace("attack.fraction = 0.5", "attack.fraction = 0.05"))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "C3/RANDOM pool has 6 inputs" in err and "attack.fraction" in err
    assert "status = failed: data" in (out / "manifest.txt").read_text()
    assert not (out / "model.grcnn").exists()
    assert trained == []


@pytest.mark.parametrize("line, named", [
    ("dsa.layers = conv1,dense9", "dsa.layers names 'dense9'"),
    ("lsa.layer = relu3", "lsa.layer names 'relu3'"),
])
def test_bad_guidance_layer_is_named(tmp_path, monkeypatch, capsys, line, named):
    # the data stage checks the SA metrics' layer names before M is trained
    from guidedretrain import stages

    trained = []
    real = stages.train_original
    monkeypatch.setattr(stages, "train_original",
                        lambda *args: trained.append(args) or real(*args))
    cfg = tmp_path / "layers.cfg"
    cfg.write_text(MINI_CONFIG.replace("metrics = RANDOM,NC", "metrics = RANDOM,NC,LSA,DSA")
                   + line + "\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert named in err and "conv1, conv2, dense1, dense2" in err
    assert "status = failed: data" in (out / "manifest.txt").read_text()
    assert not (out / "model.grcnn").exists()
    assert trained == []


@pytest.mark.parametrize("line", ["lsa.layer = relu3", "dsa.layers = conv1,dense9"])
def test_bad_guidance_layer_of_an_absent_metric_runs(tmp_path, line):
    # the mini config scores neither LSA nor DSA, so their layers are not checked
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, line + "\n")),
                 "--out", str(out)]) == 0
    assert "status = ok" in (out / "manifest.txt").read_text()


def test_idx_test_label_beyond_the_train_classes_is_named(tmp_path, capsys):
    # the training set has classes 0..2, so the test set is read with 3
    # classes and its first class-3 row is refused before M is trained
    paths = {}
    for part, classes in (("train", 3), ("test", 4)):
        data = generate_synthetic(classes, 10, 8, 0.1, seed=5)
        paths[part] = (tmp_path / f"{part}-images", tmp_path / f"{part}-labels")
        save_idx_dataset(data, *paths[part])
    first_bad = int(np.flatnonzero(data.labels == 3)[0])
    cfg = tmp_path / "idx.cfg"
    cfg.write_text(MINI_CONFIG + "dataset = idx\n" + "".join(
        f"idx.{part}_{kind} = {path}\n"
        for part, (images, labels) in paths.items()
        for kind, path in (("images", images), ("labels", labels))))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert (f"idx.test_labels ({paths['test'][1]}): row {first_bad} has label 3, "
            "out of range for class_count 3") in err
    assert "status = failed: data" in (out / "manifest.txt").read_text()
    assert not (out / "model.grcnn").exists()


def test_idx_test_images_of_another_shape_are_named(tmp_path, capsys):
    # refused before M is trained, not when the attack meets M's input layer
    paths = {}
    for part, size in (("train", 16), ("test", 8)):
        paths[part] = (tmp_path / f"{part}-images", tmp_path / f"{part}-labels")
        save_idx_dataset(generate_synthetic(4, 10, size, 0.1, seed=5), *paths[part])
    cfg = tmp_path / "idx.cfg"
    cfg.write_text(MINI_CONFIG + "dataset = idx\n" + "".join(
        f"idx.{part}_{kind} = {path}\n"
        for part, (images, labels) in paths.items()
        for kind, path in (("images", images), ("labels", labels))))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert (f"idx.test_images ({paths['test'][0]}): images are (8, 8, 1), "
            "the training images (16, 16, 1)") in capsys.readouterr().err
    assert "status = failed: data" in (out / "manifest.txt").read_text()
    assert not (out / "model.grcnn").exists()


def test_stage_commands_write_the_run_bytes(tmp_path, capsys):
    cfg = tmp_path / "all.cfg"
    cfg.write_text(ALL_CONFIG)
    staged = tmp_path / "staged"
    for step in ("train", "attack", "score", "retrain", "report"):
        assert main([step, "--config", str(cfg), "--out", str(staged)]) == 0, step
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    assert_same_bytes(staged, tmp_path / "run")
    for name in ("sets.npz", "scores.npz"):
        assert (tmp_path / "run" / name).is_file(), name
    # again into the same directory: train loads M, every artifact is fresh
    # and loaded, and the outputs do not move
    capsys.readouterr()
    for step in ("train", "attack", "score", "retrain", "report"):
        assert main([step, "--config", str(cfg), "--out", str(staged)]) == 0, step
    assert "rebuilt" not in capsys.readouterr().err
    assert_same_bytes(staged, tmp_path / "run")


def count_rebuilds(monkeypatch) -> Counter:
    """Counts M's trainings, scorings and augmented-set builds from here on."""
    from guidedretrain import metrics, retrain, stages

    calls = Counter()
    timed_scoring = metrics.timed_scoring
    build_augmented_sets = stages.build_augmented_sets
    train_original = stages.train_original

    def counting_training(*args, **kwargs):
        calls["train_original"] += 1
        return train_original(*args, **kwargs)

    def counting_scoring(metric, *args, **kwargs):
        calls["timed_scoring"] += 1
        return timed_scoring(metric, *args, **kwargs)

    def counting_build(*args, **kwargs):
        calls["build_augmented_sets"] += 1
        return build_augmented_sets(*args, **kwargs)

    monkeypatch.setattr(metrics, "timed_scoring", counting_scoring)
    monkeypatch.setattr(retrain, "timed_scoring", counting_scoring)
    monkeypatch.setattr(stages, "build_augmented_sets", counting_build)
    monkeypatch.setattr(stages, "train_original", counting_training)
    return calls


def stage(step, cfg, out, *extra):
    assert main([step, "--config", str(cfg), "--out", str(out), *extra]) == 0, step


def assert_same_scores(a, b, metrics=("random", "nc")):
    for metric in metrics:
        name = f"scores_{metric}.csv"
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_retrain_after_score_rescores_and_rebuilds_nothing(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    stage("train", cfg, out)
    stage("score", cfg, out)
    calls = count_rebuilds(monkeypatch)
    stage("retrain", cfg, out)
    assert calls == {}
    assert (out / "points.csv").is_file()


def test_stage_command_into_an_empty_out_prepares_the_data_once(tmp_path, monkeypatch):
    # the spine trains M and builds the sets from one preparation of the data
    from guidedretrain import stages

    prepared = []
    real = stages.prepare_data
    monkeypatch.setattr(stages, "prepare_data", lambda cfg: prepared.append(cfg) or real(cfg))
    calls = count_rebuilds(monkeypatch)
    stage("score", write_config(tmp_path), tmp_path / "out")
    assert len(prepared) == 1
    assert calls == {"train_original": 1, "build_augmented_sets": 1, "timed_scoring": 2}


def test_changed_attack_seed_rebuilds_the_sets(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    stage("attack", cfg, out)
    old_sets = (out / "sets.npz").read_bytes()
    capsys.readouterr()
    calls = count_rebuilds(monkeypatch)
    stage("score", cfg, out, "--seed-attack", "7")
    assert calls == {"build_augmented_sets": 1, "timed_scoring": 2}
    err = capsys.readouterr().err
    assert f"rebuilt {out / 'sets.npz'} (seed.attack = 33 -> seed.attack = 7)" in err
    assert (out / "sets.npz").read_bytes() != old_sets
    fresh = tmp_path / "fresh"
    stage("score", cfg, fresh, "--seed-attack", "7")
    assert_same_scores(out, fresh)
    default_seed = tmp_path / "default-seed"
    stage("score", cfg, default_seed)
    assert (out / "scores_nc.csv").read_bytes() != (default_seed / "scores_nc.csv").read_bytes()


def test_damaged_artifacts_are_rebuilt_not_trusted(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    reference = tmp_path / "reference"
    stage("score", cfg, reference)
    stage("score", cfg, out)
    sets = (out / "sets.npz").read_bytes()
    with np.load(out / "sets.npz", allow_pickle=False) as stored:
        arrays = dict(stored)
    # the file cut in half, then arrays under the right fingerprint whose
    # row layout does not hold: no attack sources, as many sources as Train*
    # rows, and an odd Test*
    damages = [
        sets[:len(sets) // 2],
        {"train_sources": np.zeros(0, dtype=np.int64)},
        {"train_sources": np.arange(len(arrays["train_labels"]), dtype=np.int64)},
        {"test_images": arrays["test_images"][:-1], "test_labels": arrays["test_labels"][:-1]},
    ]
    calls = count_rebuilds(monkeypatch)
    for damage in damages:
        if isinstance(damage, bytes):
            (out / "sets.npz").write_bytes(damage)
        else:
            np.savez(out / "sets.npz", **{**arrays, **damage})
        # well-formed, but in the earlier layout of one fingerprint for the
        # whole file, with scores that would reorder every sweep if they were
        # read
        np.savez(out / "scores.npz", fingerprint=np.array("0" * 64),
                 scores_NC=np.zeros(180), seconds_NC=np.array(0.0),
                 scores_RANDOM=np.zeros(180), seconds_RANDOM=np.array(0.0))
        capsys.readouterr()
        calls.clear()
        stage("score", cfg, out)
        assert calls == {"build_augmented_sets": 1, "timed_scoring": 2}
        err = capsys.readouterr().err
        assert f"rebuilt {out / 'sets.npz'} (unreadable: " in err
        assert f"rebuilt {out / 'scores.npz'} (RANDOM, NC missing)" in err
        assert_same_scores(out, reference)
        assert (out / "sets.npz").read_bytes() == sets


def test_retrained_m_makes_both_artifacts_stale(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    stage("train", cfg, out)
    stage("score", cfg, out)
    capsys.readouterr()
    stage("train", cfg, out, "--seed-init", "12")
    change = "seed.init = 11 -> seed.init = 12"
    assert f"rebuilt {out / 'model.grcnn'} ({change})" in capsys.readouterr().err
    calls = count_rebuilds(monkeypatch)
    stage("score", cfg, out, "--seed-init", "12")
    assert calls == {"build_augmented_sets": 1, "timed_scoring": 2}
    err = capsys.readouterr().err
    assert f"rebuilt {out / 'sets.npz'} ({change})" in err
    assert f"rebuilt {out / 'scores.npz'} (RANDOM, NC {change})" in err
    fresh = tmp_path / "fresh"
    stage("train", cfg, fresh, "--seed-init", "12")
    stage("score", cfg, fresh, "--seed-init", "12")
    assert_same_scores(out, fresh)


def test_a_stale_m_is_trained_again_not_scored(tmp_path, monkeypatch, capsys):
    # `score` after `train` at another seed.init scores a fresh M, not the old one
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    stage("train", cfg, out, "--seed-init", "11")
    capsys.readouterr()
    calls = count_rebuilds(monkeypatch)
    stage("score", cfg, out, "--seed-init", "99")
    assert calls == {"train_original": 1, "build_augmented_sets": 1, "timed_scoring": 2}
    err = capsys.readouterr().err
    assert f"rebuilt {out / 'model.grcnn'} (seed.init = 11 -> seed.init = 99)" in err
    fresh = tmp_path / "fresh"
    stage("score", cfg, fresh, "--seed-init", "99")
    assert (out / "model.grcnn").read_bytes() == (fresh / "model.grcnn").read_bytes()
    with np.load(out / "scores.npz") as got, np.load(fresh / "scores.npz") as want:
        assert got.files == want.files
        for name in got.files:
            if not name.startswith("seconds_"):  # each scoring's own time
                assert got[name].tobytes() == want[name].tobytes(), name


def test_report_refuses_the_points_of_a_stale_m_and_trains_nothing(tmp_path, monkeypatch,
                                                                    capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    stage("retrain", cfg, out)
    model = (out / "model.grcnn").read_bytes()
    calls = count_rebuilds(monkeypatch)
    err = refused_report(cfg, out, capsys, "--seed-init", "99")
    assert (f"{out / 'points.npz'} (C2_RANDOM, C2_NC, C3_RANDOM, C3_NC seed.init = 11 -> "
            "seed.init = 99)") in err
    assert calls == {}
    assert (out / "model.grcnn").read_bytes() == model


def test_a_version_1_model_file_is_rebuilt_once_then_loaded(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    stage("train", cfg, out)
    written = (out / "model.grcnn").read_bytes()
    model, lines = load_model(out / "model.grcnn")
    assert lines[0] == "guidedretrain model v1"
    (out / "model.grcnn").write_bytes(v1_bytes(model))
    calls = count_rebuilds(monkeypatch)
    capsys.readouterr()
    stage("train", cfg, out)
    assert calls == {"train_original": 1}
    err = capsys.readouterr().err
    assert f"rebuilt {out / 'model.grcnn'} ((none) -> guidedretrain model v1)" in err
    assert (out / "model.grcnn").read_bytes() == written
    calls.clear()
    stage("train", cfg, out)
    assert calls == {}
    assert "rebuilt" not in capsys.readouterr().err


def test_scores_file_gains_only_the_missing_metrics(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    stage("score", cfg, out)
    capsys.readouterr()
    calls = count_rebuilds(monkeypatch)
    wider = tmp_path / "wider.cfg"
    wider.write_text(MINI_CONFIG.replace("metrics = RANDOM,NC", "metrics = RANDOM,NC,LSA"))
    stage("score", wider, out)
    assert calls == {"timed_scoring": 1}
    assert f"rebuilt {out / 'scores.npz'} (LSA missing)" in capsys.readouterr().err
    # the retraining order reads every bit of a score, not its 9 CSV digits
    run_cfg = with_overrides(parse_config(wider.read_text()), out=str(out))
    spine = Spine(run_cfg)
    with _blas.one_blas_thread():
        fresh = score_metrics(("RANDOM", "NC", "LSA"), spine.model, spine.sets.train_star, run_cfg)
    with np.load(out / "scores.npz", allow_pickle=False) as stored:
        assert sorted(stored.files) == [f"{field}_{metric}"
                                        for field in ("fingerprint", "scores", "seconds")
                                        for metric in ("LSA", "NC", "RANDOM")]
        for metric, (values, _) in fresh.items():
            loaded = stored[f"scores_{metric}"]
            assert loaded.dtype == np.float64 and np.array_equal(
                loaded.view(np.uint64), values.view(np.uint64)), metric


def test_float32_pass_scores_as_its_float64_widening(tmp_path):
    # the pass holds float32 traces and each metric widens the block it
    # computes on, so every score has the bits of the same pass in float64
    cfg = with_overrides(parse_config(MINI_CONFIG), out=str(tmp_path / "out"))
    spine = Spine(cfg)
    model, train_star = spine.model, spine.sets.train_star
    with _blas.one_blas_thread():
        fp = forward_pass(model, train_star.images)
        wide = ForwardPass(fp.architecture, fp.labels, fp.traces.astype(np.float64))
        assert fp.traces.dtype == np.float32
        assert (fp.labels != train_star.labels).any()  # DSA searches, too
        for metric in TRACE_METRICS:
            got = _trace_metric_values(metric, fp, train_star, cfg)
            want = _trace_metric_values(metric, wide, train_star, cfg)
            assert got.dtype == want.dtype == np.float64, metric
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), metric


GUIDANCE_AND_ATTACK = """
nc.threshold = 0.3
lsa.layer = conv2
lsa.variance_threshold = 1e-3
dsa.layers = conv1,dense1
seed.random_metric = 9
attack.epsilon = 0.2
"""


def test_each_guidance_and_attack_key_reaches_its_function(tmp_path):
    # the stage spine passes each setting to the function that uses it: the
    # sets and every metric's scores equal direct calls with the same values
    cfg = with_overrides(parse_config(MINI_CONFIG + GUIDANCE_AND_ATTACK), out=str(tmp_path),
                         metrics=("NC", "LSA", "DSA", "RANDOM"))
    spine = Spine(cfg)
    model, sets = spine.model, spine.sets
    train_set, test_set = prepare_data(cfg)
    direct = build_augmented_sets(model, train_set, test_set, 0.5, 0.2, seed=33)
    for got, want in ((sets.train_star, direct.train_star), (sets.test_star, direct.test_star)):
        assert got.images.tobytes() == want.images.tobytes()
        assert got.labels.tobytes() == want.labels.tobytes()
    assert sets.train_sources.tobytes() == direct.train_sources.tobytes()
    train_star = sets.train_star
    with _blas.one_blas_thread():
        scored = score_metrics(cfg.metrics, model, train_star, cfg)
        fp = forward_pass(model, train_star.images)
        index = fit_dsa(fp, train_star, layers=("conv1", "dense1"))
        want = {
            "NC": nc_scores(fp, 0.3),
            "LSA": lsa_scores(fit_lsa(fp, train_star, layer="conv2", variance_threshold=1e-3),
                              fp),
            "DSA": dsa_from_traces(index, index.traces, fp.labels),
            "RANDOM": random_scores(len(train_star), 9),
        }
        # each value is one the default would not give
        defaults = score_metrics(cfg.metrics, model, train_star, ExperimentConfig())
    for metric in cfg.metrics:
        values = scored[metric][0]
        assert values.view(np.uint64).tobytes() == want[metric].view(np.uint64).tobytes(), metric
        assert values.tobytes() != defaults[metric][0].tobytes(), metric


@pytest.mark.parametrize("flag, value, stale", [
    # seed-33 sets, not seed-7 ones
    pytest.param("--seed-attack", "7", "C2_RANDOM, C2_NC, C3_RANDOM, C3_NC seed.attack = 33 -> "
                 "seed.attack = 7", id="sets-key"),
    pytest.param("--seed-random-metric", "45", "C2_RANDOM, C3_RANDOM seed.random_metric = 44 -> "
                 "seed.random_metric = 45", id="scores-key"),
    pytest.param("--seed-shuffle", "23", "C2_RANDOM, C2_NC, C3_RANDOM, C3_NC seed.shuffle = 22 -> "
                 "seed.shuffle = 23", id="points-key"),
])
def test_report_refuses_points_of_another_config(tmp_path, monkeypatch, capsys, flag, value,
                                                  stale):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    stage("retrain", cfg, out)
    calls = count_rebuilds(monkeypatch)
    capsys.readouterr()
    # refused before the sets are loaded or built, and before any scoring
    assert main(["report", "--config", str(cfg), "--out", str(out), flag, value]) == 1
    err = capsys.readouterr().err
    assert f"{out / 'points.npz'} ({stale})" in err
    assert not (out / "summary.csv").exists()
    assert calls == {}
    stage("report", cfg, out)
    (out / "summary.csv").unlink()
    (out / "points.npz").unlink()
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 1
    assert f"{out / 'points.npz'} (missing)" in capsys.readouterr().err
    assert not (out / "summary.csv").exists()


def test_report_reads_points_npz_not_a_hand_edited_points_csv(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    stage("run", cfg, out)
    summary = (out / "summary.csv").read_bytes()
    # points.csv is a table only: an edited pool_total reaches no report
    lines = (out / "points.csv").read_text().splitlines(keepends=True)
    column = lines[0].split(",").index("pool_total")
    edited = [lines[0]]
    for line in lines[1:]:
        fields = line.split(",")
        fields[column] = "400"
        edited.append(",".join(fields))
    (out / "points.csv").write_text("".join(edited))
    (out / "summary.csv").unlink()
    stage("report", cfg, out)
    assert (out / "summary.csv").read_bytes() == summary


def refused_report(cfg, out, capsys, *extra) -> str:
    """stderr of a `report` that exits 1 and writes no summary.csv."""
    capsys.readouterr()
    assert main(["report", "--config", str(cfg), "--out", str(out), *extra]) == 1
    assert not (out / "summary.csv").exists()
    return capsys.readouterr().err


def test_report_refuses_a_truncated_points_npz(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    stage("retrain", cfg, out)
    stored = (out / "points.npz").read_bytes()
    (out / "points.npz").write_bytes(stored[:len(stored) // 2])
    assert f"{out / 'points.npz'} (unreadable: " in refused_report(cfg, out, capsys)


def test_report_refuses_points_npz_missing_a_pair(tmp_path, capsys):
    cfg = write_config(tmp_path)  # 2 configurations x 2 metrics
    out = tmp_path / "out"
    stage("retrain", cfg, out)
    with np.load(out / "points.npz", allow_pickle=False) as stored:
        arrays = dict(stored)
    # the first three pairs, each with its arrays and its fingerprint
    np.savez(out / "points.npz", **{name: values for name, values in arrays.items()
                                    if not name.endswith("_C3_NC")})
    assert f"{out / 'points.npz'} (C3_NC missing)" in refused_report(cfg, out, capsys)
    # a held pair whose arrays do not have their shape makes the file unreadable
    np.savez(out / "points.npz", **{**arrays, "input_size_C2_NC": arrays["input_size_C2_NC"][:-1]})
    assert (f"{out / 'points.npz'} (unreadable: ValueError: input_size_C2_NC is int64 (19,), "
            "expected int64 (20,))") in refused_report(cfg, out, capsys)


def test_report_into_an_empty_out_loads_and_trains_nothing(tmp_path, monkeypatch, capsys):
    from guidedretrain import stages

    trained = []
    real = stages.train_original
    monkeypatch.setattr(stages, "train_original",
                        lambda *args: trained.append(args) or real(*args))
    out = tmp_path / "out"
    err = refused_report(write_config(tmp_path), out, capsys)
    assert f"{out / 'points.npz'} (missing)" in err
    assert not (out / "model.grcnn").exists()
    assert trained == []


def test_report_reads_points_npz_alone(tmp_path, monkeypatch, capsys):
    # M's accuracy on Test* is stored with the points, so report needs
    # neither M nor the sets
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    stage("run", cfg, out)
    summary = hashlib.sha256((out / "summary.csv").read_bytes()).hexdigest()
    for name in ("model.grcnn", "sets.npz", "summary.csv"):
        (out / name).unlink()
    calls = count_rebuilds(monkeypatch)
    capsys.readouterr()
    stage("report", cfg, out)
    assert "rebuilt" not in capsys.readouterr().err
    assert calls == {}
    assert not (out / "model.grcnn").exists() and not (out / "sets.npz").exists()
    assert hashlib.sha256((out / "summary.csv").read_bytes()).hexdigest() == summary


def test_report_reads_points_npz_once(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    stage("retrain", cfg, out)
    opened = []
    real = np.load

    def counting(file, *args, **kwargs):
        opened.append(os.path.basename(file))
        return real(file, *args, **kwargs)

    monkeypatch.setattr(np, "load", counting)
    stage("report", cfg, out)
    assert opened.count("points.npz") == 1


def count_points(monkeypatch) -> list:
    """The (kind, metric, point) of every retrain_point call from here on;
    only points run in-process (GR_THREADS=1) are seen."""
    from guidedretrain import retrain

    calls = []
    real = retrain.retrain_point

    def counting(kind, start, pool, size, hp, point_index, eval_sets, metric=""):
        calls.append((kind, metric, point_index))
        return real(kind, start, pool, size, hp, point_index, eval_sets, metric=metric)

    monkeypatch.setattr(retrain, "retrain_point", counting)
    return calls


def test_points_npz_reads_back_the_pool_records(tmp_path):
    cfg = with_overrides(parse_config(MINI_CONFIG), out=str(tmp_path / "out"))
    with _blas.one_blas_thread():
        batch = Spine(cfg).points
        loaded = Spine(cfg).points
    assert batch.workers >= 1 and all(r.wall_seconds > 0 for rec in batch.records
                                      for r in rec.runs)
    # every field, wall seconds included, bit for bit
    assert loaded.records == batch.records
    assert Spine(cfg).stored_points() == (batch.records, None)
    assert (loaded.workers, loaded.worker_cpu_seconds) == (0, 0.0)


@pytest.mark.parametrize("step", ["retrain", "run"])
def test_second_retrain_or_run_loads_the_points(tmp_path, monkeypatch, capsys, step):
    monkeypatch.setenv("GR_THREADS", "1")
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    calls = count_points(monkeypatch)
    stage(step, cfg, out)
    assert len(calls) == 4 * 20
    written = {path.name: path.read_bytes() for path in out.glob("*.csv")
               if path.name != "timing.csv"}
    assert "points.csv" in written
    calls.clear()
    capsys.readouterr()
    rebuilds = count_rebuilds(monkeypatch)
    stage(step, cfg, out)
    assert calls == []
    assert rebuilds == {}  # M is loaded, not trained again
    assert "rebuilt" not in capsys.readouterr().err
    assert {name: (out / name).read_bytes() for name in written} == written
    if step == "run":
        runtime = manifest_runtime(out)
        assert runtime["retrain_workers"] == "0"
        assert runtime["retrain_worker_cpu_seconds"] == "0.000"
        assert "points.npz" in manifest_files(out)


def csv_bytes(out) -> dict:
    """{name: bytes} of every CSV in out but the timing one."""
    return {path.name: path.read_bytes() for path in out.glob("*.csv") if path.name != "timing.csv"}


def test_a_wider_metric_list_retrains_only_the_new_pairs(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GR_THREADS", "1")
    out = tmp_path / "out"
    stage("run", write_config(tmp_path), out)
    wider = tmp_path / "wider.cfg"
    wider.write_text(MINI_CONFIG.replace("metrics = RANDOM,NC", "metrics = RANDOM,NC,LSA"))
    calls = count_points(monkeypatch)
    capsys.readouterr()
    stage("run", wider, out)
    assert sorted(calls) == sorted((kind, "LSA", i) for kind in ("C2", "C3") for i in range(20))
    assert f"rebuilt {out / 'points.npz'} (C2_LSA, C3_LSA missing)" in capsys.readouterr().err
    fresh = tmp_path / "fresh"
    stage("run", wider, fresh)
    assert csv_bytes(out) == csv_bytes(fresh)
    calls.clear()
    capsys.readouterr()
    stage("run", wider, out)
    assert calls == []
    assert "rebuilt" not in capsys.readouterr().err
    assert csv_bytes(out) == csv_bytes(fresh)


def test_narrowing_the_configurations_and_widening_back_retrains_nothing(tmp_path, monkeypatch,
                                                                          capsys):
    monkeypatch.setenv("GR_THREADS", "1")
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    stage("run", cfg, out)
    written = csv_bytes(out)
    narrower = tmp_path / "narrower.cfg"
    narrower.write_text(MINI_CONFIG.replace("configs = C2,C3", "configs = C2"))
    calls = count_points(monkeypatch)
    capsys.readouterr()
    stage("run", narrower, out)
    assert "plot_c3.csv" not in csv_bytes(out)
    stage("run", cfg, out)
    assert calls == []
    assert f"rebuilt {out / 'points.npz'}" not in capsys.readouterr().err
    assert csv_bytes(out) == written


def earlier_fingerprint(cfg, tag, digests, keys) -> str:
    """A fingerprint of the earlier layouts, one per file: a sha256 over the
    tag, the digest lines and the config_echo lines of `keys` (a key ending
    in "." names its section)."""
    keys = tuple(k if k.endswith(".") else f"{k} = " for k in keys)
    lines = [tag, *digests, *(line for line in config_echo(cfg) if line.startswith(keys))]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def v1_bytes(model) -> bytes:
    """model.grcnn as format version 1 wrote it: no lines after the descriptor."""
    raw = model_bytes(model)
    descriptor_end = 16 + int.from_bytes(raw[8:16], "little")
    return raw[:7] + bytes([1]) + raw[8:descriptor_end] + raw[descriptor_end + 8:]


def earlier_fingerprints(cfg, model) -> dict:
    """The sets, scores and points fingerprints of the one-fingerprint-per-file
    layout, each covering the one before it, for a synthetic-data `cfg`; the
    sets covered the sha256 of M's version 1 model file."""
    model_sha = hashlib.sha256(v1_bytes(model)).hexdigest()
    sets = earlier_fingerprint(
        cfg, "guidedretrain sets v2", [f"model sha256 = {model_sha}"],
        ("dataset", "synthetic.", "idx.", "attack.epsilon", "attack.fraction", "seed.attack"))
    layers = [f"{key} = {','.join(names)}"
              for key, names in guidance_layers(cfg, model.architecture).items()]
    scores = earlier_fingerprint(cfg, "guidedretrain scores v2", [f"sets = {sets}", *layers],
                                 ("nc.threshold", "lsa.variance_threshold", "seed.random_metric"))
    points = earlier_fingerprint(cfg, "guidedretrain points v2", [f"scores = {scores}"],
                                 ("retrain.", "seed.init", "seed.shuffle"))
    return {"sets": sets, "scores": scores, "points": points}


def test_earlier_fingerprints_are_those_the_earlier_layout_stored():
    # the values that layout pinned for the default config and this model
    model = build_model(desk_architecture(input_shape=(8, 8, 1), classes=4), seed=3)
    assert earlier_fingerprints(ExperimentConfig(), model) == {
        "sets": "05ab23c913f8bed88aa764a6d0d5a415596673583fe527a05ce447d66a7f799f",
        "scores": "60ccbedecb73a5f69ac39677a88c6efe709ae2185db550639d738ba794f39945",
        "points": "d95f592e730800a2d549bc0d3d3809696c7a13b75d785be7a317e7f6646a746a",
    }


def test_points_npz_of_the_whole_sweep_layout_is_rebuilt_as_stale(tmp_path, monkeypatch, capsys):
    # the earliest layout: one (pairs, points) array per field under a
    # fingerprint that named the metrics and configurations
    monkeypatch.setenv("GR_THREADS", "1")
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    stage("run", cfg, out)
    written = csv_bytes(out)
    run_cfg = with_overrides(parse_config(MINI_CONFIG), out=str(out))
    scores = earlier_fingerprints(run_cfg, load_model(out / "model.grcnn")[0])["scores"]
    fingerprint = earlier_fingerprint(
        run_cfg, "guidedretrain points v1", [f"scores = {scores}"],
        ("retrain.", "configs", "metrics", "seed.init", "seed.shuffle"))
    pairs = [f"{kind}_{metric}" for kind in ("C2", "C3") for metric in ("RANDOM", "NC")]
    with np.load(out / "points.npz", allow_pickle=False) as stored:
        whole = {field: np.stack([stored[f"{field}_{pair}"] for pair in pairs])
                 for field in ("input_size", "accuracy_test_star", "accuracy_test",
                               "accuracy_adv_test", "wall_seconds", "pool_total")}
    np.savez(out / "points.npz", fingerprint=np.array(fingerprint), **whole)
    (out / "summary.csv").unlink()
    stale = "C2_RANDOM, C2_NC, C3_RANDOM, C3_NC missing"
    assert f"{out / 'points.npz'} ({stale})" in refused_report(cfg, out, capsys)
    calls = count_points(monkeypatch)
    stage("run", cfg, out)
    assert len(calls) == 4 * 20
    assert f"rebuilt {out / 'points.npz'} ({stale})" in capsys.readouterr().err
    assert csv_bytes(out) == written


def test_files_of_the_one_fingerprint_layout_are_rebuilt_not_read(tmp_path, monkeypatch, capsys):
    # sets.npz, scores.npz and points.npz as the one-fingerprint-per-file
    # layout wrote them for this config and M, with arrays that would reorder
    # the sweep and move every accuracy if they were read
    monkeypatch.setenv("GR_THREADS", "1")
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    stage("run", cfg, out)
    written = csv_bytes(out)
    earlier = earlier_fingerprints(with_overrides(parse_config(MINI_CONFIG), out=str(out)),
                                   load_model(out / "model.grcnn")[0])
    for link in ("sets", "scores", "points"):
        with np.load(out / f"{link}.npz", allow_pickle=False) as stored:
            arrays = {name: 1 - values if name.startswith(("train_images", "scores_", "accuracy_"))
                      else values for name, values in stored.items()
                      if not name.startswith("fingerprint")}
        np.savez(out / f"{link}.npz", fingerprint=np.array(earlier[link]), **arrays)
    calls, points = count_rebuilds(monkeypatch), count_points(monkeypatch)
    capsys.readouterr()
    stage("run", cfg, out)
    assert calls == {"build_augmented_sets": 1, "timed_scoring": 2}
    assert len(points) == 4 * 20
    err = capsys.readouterr().err
    assert f"rebuilt {out / 'sets.npz'} ({earlier['sets']} -> guidedretrain model v1)" in err
    assert f"rebuilt {out / 'scores.npz'} (RANDOM, NC missing)" in err
    assert f"rebuilt {out / 'points.npz'} (C2_RANDOM, C2_NC, C3_RANDOM, C3_NC missing)" in err
    assert csv_bytes(out) == written
    for link in ("scores", "points"):
        with np.load(out / f"{link}.npz", allow_pickle=False) as stored:
            assert "fingerprint" not in stored.files, link
    # rebuilt once: the next run reads every entry
    calls.clear()
    points.clear()
    stage("run", cfg, out)
    assert (calls, points) == ({}, [])


def test_points_npz_of_the_v3_pair_tag_is_refused_then_rebuilt_once(tmp_path, monkeypatch,
                                                                     capsys):
    # the v3 pair tag stored no original_accuracy_<pair> array
    monkeypatch.setenv("GR_THREADS", "1")
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    stage("run", cfg, out)
    written = csv_bytes(out)
    with np.load(out / "points.npz", allow_pickle=False) as stored:
        arrays = {name: np.char.replace(values, "guidedretrain pair v4", "guidedretrain pair v3")
                  if name.startswith("fingerprint_") else values
                  for name, values in stored.items() if not name.startswith("original_accuracy_")}
    np.savez(out / "points.npz", **arrays)
    (out / "summary.csv").unlink()
    stale = "C2_RANDOM, C2_NC, C3_RANDOM, C3_NC guidedretrain pair v3 -> guidedretrain pair v4"
    assert f"{out / 'points.npz'} ({stale})" in refused_report(cfg, out, capsys)
    calls = count_points(monkeypatch)
    stage("retrain", cfg, out)
    assert sorted(calls) == sorted((kind, metric, i) for kind in ("C2", "C3")
                                   for metric in ("RANDOM", "NC") for i in range(20))
    assert f"rebuilt {out / 'points.npz'} ({stale})" in capsys.readouterr().err
    calls.clear()
    stage("retrain", cfg, out)
    stage("report", cfg, out)
    assert calls == []
    assert "rebuilt" not in capsys.readouterr().err
    assert csv_bytes(out) == written


@pytest.mark.parametrize("line, metric, change", [
    ("seed.random_metric = 45", "RANDOM", "seed.random_metric = 44 -> seed.random_metric = 45"),
    ("nc.threshold = 0.25", "NC", "nc.threshold = 0.5 -> nc.threshold = 0.25"),
])
def test_a_changed_scoring_key_rescores_and_retrains_only_its_metric(tmp_path, monkeypatch,
                                                                     capsys, line, metric, change):
    monkeypatch.setenv("GR_THREADS", "1")
    out = tmp_path / "out"
    stage("run", write_config(tmp_path), out)
    changed = tmp_path / "changed.cfg"
    changed.write_text(MINI_CONFIG + line + "\n")
    calls, points = count_rebuilds(monkeypatch), count_points(monkeypatch)
    capsys.readouterr()
    stage("run", changed, out)
    assert sorted(points) == sorted((kind, metric, i) for kind in ("C2", "C3") for i in range(20))
    assert calls == {"timed_scoring": 1}
    err = capsys.readouterr().err
    assert f"rebuilt {out / 'scores.npz'} ({metric} {change})\n" in err
    assert f"rebuilt {out / 'points.npz'} (C2_{metric}, C3_{metric} {change})\n" in err
    assert err.count("rebuilt") == 2
    fresh = tmp_path / "fresh"
    stage("run", changed, fresh)
    assert csv_bytes(out) == csv_bytes(fresh)


def manifest_files(out) -> list[str]:
    """The file names of a manifest's [files] section."""
    section = (out / "manifest.txt").read_text().split("[files]\n", 1)[1].split("\n[", 1)[0]
    return [line.split("  ", 1)[1] for line in section.splitlines()]


def test_every_listed_csv_reads_back_as_a_table(tmp_path):
    out = tmp_path / "out"
    stage("run", write_config(tmp_path), out)
    listed = [name for name in manifest_files(out) if name.endswith(".csv")]
    assert len(listed) == 8  # points, summary, comparison, timing, 2 plots, 2 scores
    for name in listed:
        lines = (out / name).read_text().splitlines()
        rows = read_table(out / name)  # refuses a line of another field count
        assert len(rows) == len(lines) - 1 > 0, name
        assert all(list(row) == lines[0].split(",") for row in rows), name


def test_a_narrower_run_leaves_only_its_own_csvs(tmp_path):
    out = tmp_path / "out"
    stage("run", write_config(tmp_path), out)
    narrower = tmp_path / "narrower.cfg"
    narrower.write_text(MINI_CONFIG.replace("metrics = RANDOM,NC", "metrics = RANDOM")
                        .replace("configs = C2,C3", "configs = C2"))
    stage("run", narrower, out)
    on_disk = sorted(path.name for path in out.glob("*.csv"))
    assert on_disk == sorted(name for name in manifest_files(out) if name.endswith(".csv"))
    assert on_disk == ["comparison.csv", "plot_c2.csv", "points.csv", "scores_random.csv",
                       "summary.csv", "timing.csv"]


TREND_SEED = 5


def trend_config(out):
    return with_overrides(parse_config(MINI_CONFIG), out=str(out))


def test_trend_seed_directory_holds_the_run_points(tmp_path):
    compute_trend(trend_config(tmp_path / "unused"), [TREND_SEED], tmp_path / "trend")
    # the overrides the trend applies to each seed
    run_cfg = with_overrides(trend_config(tmp_path / "run"), configs=("C2",),
                             metrics=("LSA", "DSA", "RANDOM"), synthetic_seed=TREND_SEED,
                             seed_init=TREND_SEED + 1, seed_shuffle=TREND_SEED + 2,
                             seed_attack=TREND_SEED + 3, seed_random_metric=TREND_SEED + 4)
    run_pipeline(run_cfg)
    seed_dir = tmp_path / "trend" / f"seed-{TREND_SEED}"
    assert (seed_dir / "points.csv").read_bytes() == (tmp_path / "run" / "points.csv").read_bytes()


def test_second_trend_call_rebuilds_and_rescores_nothing(tmp_path, monkeypatch):
    monkeypatch.setenv("GR_THREADS", "1")  # so that every retrain_point call is counted
    cfg = trend_config(tmp_path / "unused")
    points = count_points(monkeypatch)
    compute_trend(cfg, [TREND_SEED], tmp_path / "trend")
    assert len(points) == 3 * 20  # LSA, DSA and Random under C2
    tables = {name: (tmp_path / "trend" / name).read_bytes()
              for name in ("trend.csv", "trend_summary.csv")}
    calls = count_rebuilds(monkeypatch)
    points.clear()
    compute_trend(cfg, [TREND_SEED], tmp_path / "trend")
    assert calls == {}
    assert points == []
    assert {name: (tmp_path / "trend" / name).read_bytes() for name in tables} == tables


# each command runs on one OpenBLAS thread and restores the caller's count
@pytest.fixture
def two_threads():
    """The caller's OpenBLAS count set to 2 for the test, restored after it."""
    lib = _blas._openblas()
    if lib is None:
        pytest.skip("NumPy is not linked against OpenBLAS")
    get, put, _ = lib
    saved = get()
    put(2)
    yield "2"
    put(saved)


def blas_threads():
    return _blas.blas_runtime()["blas_threads"]


def test_command_sees_one_thread_and_caller_count_is_restored(tmp_path, monkeypatch,
                                                              two_threads):
    seen = []

    def fake_run(cfg):
        seen.append(blas_threads())
        return 0

    monkeypatch.setattr(cli, "cmd_run", fake_run)
    assert main(["run", "--config", str(write_config(tmp_path))]) == 0
    assert seen == ["1"]
    assert blas_threads() == two_threads


def test_count_restored_after_pipeline_error(tmp_path, monkeypatch, capsys, two_threads):
    def failing_run(cfg):
        assert blas_threads() == "1"
        raise RuntimeError("stage broke")

    monkeypatch.setattr(cli, "cmd_run", failing_run)
    assert main(["run", "--config", str(write_config(tmp_path))]) == 1
    assert "stage broke" in capsys.readouterr().err
    assert blas_threads() == two_threads
    # a command that reports failure by its exit code
    assert main(["report", "--config", str(write_config(tmp_path)),
                 "--out", str(tmp_path / "empty")]) == 1
    assert blas_threads() == two_threads


def test_count_untouched_by_bad_config(tmp_path, two_threads):
    bad = tmp_path / "bad.cfg"
    bad.write_text("who = knows\n")
    assert main(["run", "--config", str(bad)]) == 2
    assert blas_threads() == two_threads


def test_without_openblas_the_pin_does_nothing(tmp_path, monkeypatch):
    monkeypatch.setattr(_blas, "_openblas", lambda: None)
    with _blas.one_blas_thread():
        assert _blas.blas_runtime() == {"blas_config": "unknown", "blas_threads": "unknown"}
    out = tmp_path / "out"
    assert main(["train", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 0
    assert (out / "model.grcnn").is_file()


def test_run_manifest_records_one_blas_thread(tmp_path, two_threads):
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 0
    manifest = (out / "manifest.txt").read_text()
    runtime = manifest.split("[runtime]\n", 1)[1].split("[timings]\n", 1)
    assert len(runtime) == 2  # [runtime] comes before [timings]
    lines = runtime[0].splitlines()
    assert "blas_threads = 1" in lines
    assert lines[0].startswith("blas_config = ") and "OpenBLAS" in lines[0]
    assert lines[2] == f"numpy_version = {np.__version__}"  # right after the BLAS lines


def modules_of_a_score_process(tmp_path, package) -> list[str]:
    """The modules of `package` that a fresh interpreter has loaded after
    scoring all four metrics."""
    cfg = tmp_path / "score.cfg"
    cfg.write_text(MINI_CONFIG.replace("metrics = RANDOM,NC", "metrics = NC,LSA,DSA,RANDOM"))
    code = ("import sys\n"
            "import guidedretrain.cli\n"
            f"status = guidedretrain.cli.main(['score', '--config', {str(cfg)!r}, "
            f"'--out', {str(tmp_path / 'out')!r}])\n"
            f"print(status, *sorted(m for m in sys.modules if m == {package!r} "
            f"or m.startswith({package + '.'!r})))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    status, *loaded = done.stdout.splitlines()[-1].split()
    assert status == "0"
    for metric in ("nc", "lsa", "dsa", "random"):
        assert (tmp_path / "out" / f"scores_{metric}.csv").is_file()
    return loaded


def test_cli_process_imports_no_scipy(tmp_path):
    # LSA and DSA are numpy only; a fresh interpreter that scores must not
    # load SciPy, whose import once took two thirds of every start-up
    assert modules_of_a_score_process(tmp_path, "scipy") == []


def test_score_process_imports_no_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on its first call (about 15 ms, charged to
    # LSA's seconds); the metrics find distinct classes without it
    assert modules_of_a_score_process(tmp_path, "numpy.ma") == []
