"""guidedretrain benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the named workload closed-loop, one iteration at a time, each in a fresh
interpreter (perfbench/worker.py), for about S seconds and at least once.
Every iteration writes a fresh output directory whose byte-identity set is
hashed and checked. The last stdout line is the JSON result; the line before
it, starting with `env `, records the machine, versions, thread settings,
load and digest checks. With --trace 0 the result carries the end-to-end
metrics (medians over iterations); with --trace 1 it runs one untraced and
one traced iteration and carries the per-layer metrics. Each run's record
is written to `.perfbench/results/` at the root of the checkout. See
perfbench/README.md for every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import layer_metrics, load_spans  # noqa: E402
from worker import SRC, THREAD_VARS  # noqa: E402

DEFAULT_SEED = 0  # reproduces the library's default seeds
DEADLINE_S = 170.0  # a run must end within 180 s
SETUP_SAMPLES = 2  # set-up-only interpreter starts per run, plus one per iteration

# Config keys derived from --seed: base + SEED_STRIDE * seed.
SEED_KEYS = {"synthetic.seed": 1234, "seed.init": 11, "seed.shuffle": 22,
             "seed.attack": 33, "seed.random_metric": 44}
SEED_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    config: dict
    steps: tuple  # CLI subcommands run in order into one fresh out dir


# Sized for 11-12 s per iteration on a 2-core machine, so that a 55 s run
# holds about four iterations; see perfbench/README.md for why each exists.
WORKLOADS = {
    "sweep": Workload({
        "synthetic.per_class_train": 40,
        "synthetic.per_class_test": 5,
        "train.epochs": 10,
        "retrain.epochs": 1,
    }, ("run",)),
    "stages": Workload({
        "synthetic.per_class_train": 200,
        "synthetic.per_class_test": 25,
        "train.epochs": 3,
        "retrain.epochs": 1,
        "configs": "C3",
    }, ("train", "attack", "score", "retrain", "report")),
}

END_TO_END_UNITS = {"run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def config_text(workload: Workload, seed: int) -> str:
    values = dict(workload.config)
    for key, base in SEED_KEYS.items():
        values[key] = base + SEED_STRIDE * seed
    return "".join(f"{key} = {value}\n" for key, value in values.items())


def artifact_names(workload: Workload) -> list[str]:
    """The byte-identity set the workload's steps write."""
    configs = str(workload.config.get("configs", "C1,C2,C3")).split(",")
    metrics = str(workload.config.get("metrics", "LSA,DSA,NC,RANDOM")).split(",")
    return (["points.csv", "summary.csv", "comparison.csv"]
            + [f"plot_{k.strip().lower()}.csv" for k in configs]
            + [f"scores_{m.strip().lower()}.csv" for m in metrics])


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def digests(out_dir: Path, names) -> dict:
    """{name: sha256, or None when the file is missing}."""
    return {name: sha256_file(out_dir / name) if (out_dir / name).is_file() else None
            for name in names}


def reference_digests(name: str, seed: int) -> dict | None:
    """The committed digests of a workload at a seed; None where none are kept."""
    return _read_json(HERE / "reference.json", {}).get(name, {}).get(str(seed))


def mismatches(found: dict, expected: dict) -> list[str]:
    """Names whose digest is missing or differs from the expected one."""
    return [name for name, digest in found.items()
            if digest is None or digest != expected.get(name)]


def timing_seconds(path: Path) -> float:
    """Sum of the per-metric seconds a run wrote to timing.csv."""
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()
        return sum(float(line.split(",")[1]) for line in fh if line.strip())


def manifest_stage_seconds(path: Path) -> dict:
    """{stage: seconds} from a run manifest's [timings] section; {} without one."""
    if not path.is_file():
        return {}
    lines = path.read_text(encoding="utf-8").split("[timings]\n", 1)[-1].splitlines()
    return {key.strip()[:-len("_seconds")]: float(value)
            for key, _, value in (line.partition("=") for line in lines)
            if key.strip().endswith("_seconds")}


def _read_json(path: Path, default):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return default


def write_json(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)


def _loadavg() -> list:
    with open("/proc/loadavg", "r", encoding="ascii") as fh:
        return [float(v) for v in fh.read().split()[:3]]


def _steal_s() -> float:
    """Cumulative CPU time stolen by the hypervisor, all CPUs."""
    with open("/proc/stat", "r", encoding="ascii") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


class Bench:
    """One benchmark invocation of one workload in one checkout."""

    def __init__(self, root: Path, name: str, workload: Workload, seed: int):
        self.root = root
        self.name = name
        self.workload = workload
        self.seed = seed
        self.state = root / ".perfbench"
        self.work = self.state / "work" / f"{name}-s{seed}-{os.getpid()}"
        self.config = self.work / "workload.cfg"
        self.names = artifact_names(workload)
        self.deadline = time.monotonic() + DEADLINE_S
        # Thread settings are the library defaults.
        self.env = {k: v for k, v in os.environ.items()
                    if k not in THREAD_VARS and k != "PYTHONPATH"}
        self.attempted = 0
        self.failed = 0
        self.setup_samples: list[float] = []
        self.iterations: list[dict] = []
        self.expected = reference_digests(name, seed)
        self.expected_from = "reference" if self.expected else None

    def spawn(self, out: Path | None, spans: Path | None = None) -> dict:
        result_path = self.work / f"result-{len(self.iterations)}-{len(self.setup_samples)}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--config", str(self.config),
               "--steps", ",".join(self.workload.steps), "--result", str(result_path),
               "--out", str(out or self.work / "unused")]
        if out is None:
            cmd.append("--setup-only")
        if spans is not None:
            cmd += ["--spans", str(spans)]
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(self.work / "worker.log", "a", encoding="utf-8") as log:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT)
            try:
                code = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                code = "timeout"
        wall = time.monotonic() - t_spawn
        result = _read_json(result_path, {}) if code == 0 else {}
        if "t_ready" in result:
            self.setup_samples.append(result["t_ready"] - t_spawn)
        result.update(exit=code, wall_s=wall)
        return result

    def iterate(self, trace: bool = False) -> dict:
        index = len(self.iterations)
        out = self.work / f"out{index}"
        spans = self.work / f"spans{index}.json" if trace else None
        result = self.spawn(out, spans)
        ok = result["exit"] == 0 and result.get("status") == 0
        found = digests(out, self.names) if ok else dict.fromkeys(self.names)
        if ok:
            result["metric_s"] = timing_seconds(out / "timing.csv")
            result["stages"] = manifest_stage_seconds(out / "manifest.txt")
        if self.expected is None and ok:
            self.expected, self.expected_from = dict(found), "first iteration"
        bad = mismatches(found, self.expected or {})
        self.attempted += len(self.names)
        self.failed += len(bad)
        record = {"traced": trace, "ok": ok, "mismatched": bad, "digests": found,
                  **{k: v for k, v in result.items() if k != "t_ready"}}
        if trace and ok:
            span_list, absent = load_spans(spans)
            layers, missing = layer_metrics(span_list, absent)
            record.update(layers=layers, absent=sorted(set(absent)), absent_metrics=missing)
            shutil.copyfile(spans, self.state / "results" / f"{self.name}-spans.json")
        if not ok:
            log = (self.work / "worker.log").read_text(encoding="utf-8", errors="replace")
            print(f"iteration {index} failed ({result['exit']}):\n{log[-2000:]}", file=sys.stderr)
        print(f"{self.name} iteration {index}: wall {result['wall_s']:.2f}s"
              f"{' traced' if trace else ''}, {len(bad)} mismatched", file=sys.stderr)
        shutil.rmtree(out, ignore_errors=True)
        self.iterations.append(record)
        return record


def run_benchmark(root: Path, name: str, seed: int, seconds: float,
                  trace: bool) -> tuple[dict, dict]:
    """(result line, environment record) of one benchmark invocation."""
    workload = WORKLOADS[name]
    bench = Bench(root, name, workload, seed)
    bench.work.mkdir(parents=True, exist_ok=True)
    (bench.state / "results").mkdir(parents=True, exist_ok=True)
    bench.config.write_text(config_text(workload, seed), encoding="utf-8")
    start = time.monotonic()
    load_start, steal_start = _loadavg(), _steal_s()
    for _ in range(SETUP_SAMPLES):
        bench.spawn(None)

    metrics: dict = {}
    if trace:
        # The untraced iteration, at the same commit and seed, is the
        # denominator of trace.overhead.
        untraced = bench.iterate()
        if untraced["ok"]:
            record = bench.iterate(trace=True)
            if record["ok"]:
                metrics = dict(record["layers"], metric_s=(record["metric_s"], "s"))
                metrics["trace.overhead"] = (record["run_s"] / untraced["run_s"], "ratio")
    else:
        while True:
            record = bench.iterate()
            walls = [r["wall_s"] for r in bench.iterations]
            elapsed = time.monotonic() - start
            if not record["ok"] or elapsed + statistics.median(walls) > seconds:
                break
            if time.monotonic() + 1.5 * max(walls) > bench.deadline:
                break
        good = [r for r in bench.iterations if r["ok"]]
        if good:
            for key in ("run_s", "cpu_s", "peak_rss_mb"):
                metrics[key] = (statistics.median([r[key] for r in good]), END_TO_END_UNITS[key])
            metrics["setup_s"] = (statistics.median(bench.setup_samples),
                                  END_TO_END_UNITS["setup_s"])

    ok_all = all(r["ok"] for r in bench.iterations) and bool(metrics)
    result = {
        "correct": ok_all and bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    env = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "iterations": len(bench.iterations),
        "setup_samples": bench.setup_samples,
        "mismatch_rate": bench.failed / bench.attempted if bench.attempted else None,
        "digests_checked_against": bench.expected_from,
        "loadavg_start": load_start,
        "loadavg_end": _loadavg(),
        "steal_s": _steal_s() - steal_start,
        "wall_s": time.monotonic() - start,
        **(bench.iterations[-1].get("env", {}) if bench.iterations else {}),
    }
    if trace and bench.iterations:
        env["absent"] = bench.iterations[-1].get("absent", [])
        env["absent_metrics"] = bench.iterations[-1].get("absent_metrics", [])
    stamp = time.strftime("%Y%m%dT%H%M%S")
    write_json(bench.state / "results" / f"{name}-s{seed}-t{int(trace)}-{stamp}.json",
                {"result": result, "env": env, "iterations": bench.iterations})
    shutil.rmtree(bench.work, ignore_errors=True)
    return result, env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (choices: {', '.join(WORKLOADS)})",
              file=sys.stderr)
        return 2
    if not (SRC / "guidedretrain" / "__init__.py").is_file():
        print(f"error: no guidedretrain sources under {SRC}; "
              "perfbench/ must sit at the root of a guidedretrain checkout", file=sys.stderr)
        return 2
    result, env = run_benchmark(root, args.workload, args.seed, args.seconds, bool(args.trace))
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
