"""One-off traced profile of the library's default config, beside the workloads.

    python3 perfbench/profile.py perfbench/baseline/profile.json

Runs `guidedretrain run` on the default config (every setting at its
library default, seed 0) once with the tracer installed, then each benchmark
workload once traced at seed 0, and writes each one's stage split, the
per-layer self-time shares and the per-layer metrics side by side. The
default run takes several minutes; it is not a workload and is not repeated.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import LAYERS  # noqa: E402

DEFAULT = run.Workload({}, ("run",))
STAGE_SPANS = ("cli.train_s", "cli.attack_s", "cli.score_s", "cli.retrain_s", "cli.report_s")


def traced(root: Path, name: str, workload: run.Workload) -> dict:
    bench = run.Bench(root, name, workload, run.DEFAULT_SEED)
    bench.deadline = math.inf
    bench.work.mkdir(parents=True, exist_ok=True)
    (bench.state / "results").mkdir(parents=True, exist_ok=True)
    bench.config.write_text(run.config_text(workload, run.DEFAULT_SEED), encoding="utf-8")
    record = bench.iterate(trace=True)
    if not record["ok"]:
        raise SystemExit(f"{name}: traced run failed")
    layers = {k: v for k, (v, _unit) in record["layers"].items()}
    total = record["run_s"]
    stages = record.get("stages") or {k.split(".")[1][:-2]: layers[k] for k in STAGE_SPANS}
    self_times = {layer: layers["metrics.math_s" if layer == "metrics" else f"{layer}.self_s"]
                  for layer in LAYERS}
    metric_seconds = {m: layers[f"metrics.{m}_s"] for m in ("nc", "lsa", "dsa", "random")}
    return {
        "run_s": total,
        "mismatched": record["mismatched"],
        "stage_s": stages,
        "stage_share": {k: v / total for k, v in stages.items()},
        "layer_self_share": {k: v / total for k, v in self_times.items()},
        "metric_s": metric_seconds,
        "layers": layers,
        "env": record.get("env", {}),
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    root = Path.cwd()
    profile = {"default": traced(root, "default", DEFAULT)}
    for name, workload in run.WORKLOADS.items():
        profile[name] = traced(root, name, workload)
    run.write_json(Path(argv[0]), profile)
    return 0


if __name__ == "__main__":
    sys.exit(main())
