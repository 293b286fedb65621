"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

They take about a minute: one check runs the `stages` call sequence and a
single `run` of the same config, another runs the `sweep` config with and
without the thread fan-out.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(REPO / "src"))

import run  # noqa: E402
import tracer  # noqa: E402

TINY = {"synthetic.per_class_train": 40, "synthetic.per_class_test": 5,
        "train.epochs": 1, "retrain.epochs": 1}


def _cli(args) -> None:
    from guidedretrain import cli

    assert cli.main(args) == 0


def test_stages_sequence_equals_single_run(tmp_path):
    stages = run.WORKLOADS["stages"]
    cfg = tmp_path / "stages.cfg"
    cfg.write_text(run.config_text(stages, run.DEFAULT_SEED), encoding="utf-8")
    for step in stages.steps:
        _cli([step, "--config", str(cfg), "--out", str(tmp_path / "stages")])
    _cli(["run", "--config", str(cfg), "--out", str(tmp_path / "run")])
    names = run.artifact_names(stages)
    by_stages = run.digests(tmp_path / "stages", names)
    assert None not in by_stages.values()
    assert by_stages == run.digests(tmp_path / "run", names)


def test_fan_out_writes_the_sequential_outputs(tmp_path, monkeypatch):
    sweep = run.WORKLOADS["sweep"]
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(run.config_text(sweep, 4), encoding="utf-8")
    monkeypatch.setenv("GR_THREADS", "1")
    _cli(["run", "--config", str(cfg), "--out", str(tmp_path / "sequential")])
    monkeypatch.setenv("GR_THREADS", "2")
    _cli(["run", "--config", str(cfg), "--out", str(tmp_path / "fan-out")])
    names = run.artifact_names(sweep)
    sequential = run.digests(tmp_path / "sequential", names)
    assert None not in sequential.values()
    assert sequential == run.digests(tmp_path / "fan-out", names)
    assert sequential == run.reference_digests("sweep", 4)


def test_flipped_byte_counts_as_mismatch(tmp_path):
    names = run.artifact_names(run.WORKLOADS["sweep"])
    original = tmp_path / "original"
    original.mkdir()
    for i, name in enumerate(names):
        (original / name).write_text(f"row,{i}\n" * 50, encoding="utf-8")
    expected = run.digests(original, names)
    copy = tmp_path / "copy"
    shutil.copytree(original, copy)
    assert run.mismatches(run.digests(copy, names), expected) == []

    victim = copy / "points.csv"
    data = bytearray(victim.read_bytes())
    data[17] ^= 0x01
    victim.write_bytes(bytes(data))
    (copy / "scores_nc.csv").unlink()
    assert sorted(run.mismatches(run.digests(copy, names), expected)) == [
        "points.csv", "scores_nc.csv"]


def test_command_prints_every_end_to_end_metric_with_unit(tmp_path, monkeypatch, capsys):
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    tiny = run.Workload(TINY, ("run",))
    monkeypatch.setitem(run.WORKLOADS, "tiny", tiny)
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "tiny", "--seed", "3", "--seconds", "1", "--trace", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2].startswith("env ")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 10
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric(tmp_path, monkeypatch, capsys):
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    monkeypatch.setitem(run.WORKLOADS, "tiny", run.Workload(TINY, ("run",)))
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "tiny", "--seed", "3", "--seconds", "1", "--trace", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    env, result = json.loads(lines[-2][len("env "):]), json.loads(lines[-1])
    assert env["iterations"] == 2 and env["absent_metrics"] == []  # untraced, then traced
    assert result["correct"] and result["attempted"] == 20
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert result["metrics"]["trace.overhead"]["value"] > 0


def test_traced_metrics_are_the_declared_per_layer_metrics():
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    layers, missing = tracer.layer_metrics([], [])
    assert missing == []
    produced = {name: unit for name, (_value, unit) in layers.items()}
    produced.update({"metric_s": "s", "trace.overhead": "ratio"})  # added by run.py
    assert produced == {m["name"]: m["unit"] for m in spec["per_layer"]}


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_traced_calls_nest_and_self_time_excludes_children():
    from guidedretrain import data, model

    m = model.build_model(model.desk_architecture(), seed=1)
    images = data.generate_synthetic(per_class=3, seed=2).images
    t = tracer.Tracer()
    t.install()
    try:
        model.predict(m, images, batch_size=4)
    finally:
        t.uninstall()
    assert not hasattr(model.forward_eval, "__wrapped__")  # restored
    names = [span[2] for span in t.spans]
    assert names.count("autodiff.forward_eval") == 3 and names[-1] == "model.predict"
    predict_id = t.spans[-1][0]
    assert all(span[1] == predict_id for span in t.spans[:-1])
    layers, missing = tracer.layer_metrics(t.spans, t.absent)
    assert missing == []
    assert layers["model.predict_rows"][0] == 12
    assert layers["autodiff.forward_infer_ms.n"][0] == 3
    assert 0 < layers["model.self_s"][0] < layers["model.predict_s"][0]


def test_absent_target_is_reported_never_zero(monkeypatch):
    from guidedretrain import metrics

    monkeypatch.delattr(metrics, "cdist")
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert "metrics.cdist" in t.absent
    layers, missing = tracer.layer_metrics([], t.absent)
    assert {"metrics.cdist_s", "metrics.cdist_pairs"} <= set(missing)
    assert "metrics.cdist_s" not in layers and "metrics.dsa_s" in layers


@pytest.mark.parametrize("seed", [0, 5])
def test_seed_derives_every_seed_key(seed):
    text = run.config_text(run.WORKLOADS["sweep"], seed)
    for key, base in run.SEED_KEYS.items():
        assert f"{key} = {base + run.SEED_STRIDE * seed}\n" in text
