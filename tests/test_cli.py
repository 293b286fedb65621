from collections import Counter

import numpy as np

from guidedretrain.cli import main
from guidedretrain.data import load_idx_dataset
from guidedretrain.model import load_model

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


def test_seed_override_changes_model(tmp_path):
    cfg = write_config(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["train", "--config", str(cfg), "--out", str(out_a), "--seed-init", "1"]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(out_b), "--seed-init", "2"]) == 0
    a = load_model(out_a / "model.grcnn")
    b = load_model(out_b / "model.grcnn")
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
