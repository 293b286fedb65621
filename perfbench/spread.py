"""Run every workload on several seeds and report each end-to-end metric's
median and quartile spread.

    python3 perfbench/spread.py --seeds 1-10 [--seconds 40] [--out FILE]

Workloads alternate within each seed, so drift in machine load touches all
of them alike. The spread is (Q3 - Q1) / median, with the quartiles of
statistics.quantiles(values, n=4). A metric is steady when its spread stays
below a third of its bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    return {"env": json.loads(lines[-2][len("env "):]), "result": json.loads(lines[-1])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    runs = {w: [] for w in workloads}
    for seed in seed_list(args.seeds):
        for workload in workloads:
            run = one_run(workload, seed, seconds)
            runs[workload].append(run)
            result = run["result"]
            values = {k: round(m["value"], 4) for k, m in result["metrics"].items()}
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values} "
                  f"steal {run['env']['steal_s']:.2f}s", file=sys.stderr, flush=True)
    summary = {}
    for workload in workloads:
        summary[workload] = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["result"]["metrics"][name]["value"] for r in runs[workload]]
            q1, median, q3 = statistics.quantiles(values, n=4)
            summary[workload][name] = {"median": median, "q1": q1, "q3": q3,
                                       "spread": (q3 - q1) / median,
                                       "bound": metric["bound"]}
        summary[workload]["all_correct"] = all(r["result"]["correct"] for r in runs[workload])
    print(json.dumps(summary, indent=1))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seconds": seconds, "seeds": args.seeds, "summary": summary,
                       "runs": runs}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
