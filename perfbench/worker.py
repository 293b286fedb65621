"""One workload iteration in a fresh interpreter.

    python3 perfbench/worker.py --config CFG --out DIR --steps run --result R.json
        [--spans S.json] [--setup-only]

Imports guidedretrain from the checkout's `src/`, parses the workload config
and notes the monotonic time at which set-up ended (the parent subtracts its
spawn time). Unless `--setup-only`, it then runs the CLI subcommands of
`--steps` in order into `--out`, timing them with tracing off or, with
`--spans`, with the tracer installed, and writes its measurements as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
THREAD_VARS = ("GR_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var, "default") for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--steps", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import guidedretrain.cli
    from guidedretrain.config import load_config

    load_config(args.config)
    t_ready = time.monotonic()
    result = {"t_ready": t_ready, "package": guidedretrain.__file__}
    if not args.setup_only:
        tracer = None
        if args.spans:
            sys.path.insert(0, str(HERE))
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        status = 0
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.monotonic()
        for step in args.steps.split(","):
            status = guidedretrain.cli.main([step, "--config", args.config, "--out", args.out])
            if status != 0:
                break
        t1 = time.monotonic()
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(args.spans)
        result.update(
            status=status,
            failed_step=step if status else None,
            run_s=t1 - t0,
            cpu_s=(ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
            peak_rss_mb=ru1.ru_maxrss / 1024.0,
            env=environment(),
        )
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
