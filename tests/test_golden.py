"""The `sweep` and `stages` benchmark workloads reproduce their committed
output digests.

c09 compares two runs of the same code with each other; this test compares
one run against the sha256 digests kept in perfbench/reference.json, so a
change that moves every run's output the same way fails here.
"""

import importlib.util
import sys
from pathlib import Path

from guidedretrain.cli import main

PERFBENCH_RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def load_perfbench_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH_RUN)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_sweep_workload_matches_reference_digests(tmp_path):
    bench = load_perfbench_run()
    seed = 0
    workload = bench.WORKLOADS["sweep"]
    assert workload.steps == ("run",)
    config = tmp_path / "sweep.cfg"
    config.write_text(bench.config_text(workload, seed))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    expected = bench.reference_digests("sweep", seed)
    names = bench.artifact_names(workload)
    assert sorted(expected) == sorted(names)
    assert bench.digests(out, names) == expected


def test_stages_workload_matches_reference_digests(tmp_path):
    # 928-row Train* with 3,108-dim traces: the data the DSA shortlist must
    # reproduce exactly, walked through the five stage subcommands
    bench = load_perfbench_run()
    seed = 0
    workload = bench.WORKLOADS["stages"]
    config = tmp_path / "stages.cfg"
    config.write_text(bench.config_text(workload, seed))
    out = tmp_path / "out"
    for step in workload.steps:
        assert main([step, "--config", str(config), "--out", str(out)]) == 0, step
    expected = bench.reference_digests("stages", seed)
    names = bench.artifact_names(workload)
    assert sorted(expected) == sorted(names)
    assert bench.digests(out, names) == expected
