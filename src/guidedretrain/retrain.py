"""Retraining configurations C1/C2/C3 over a 20-point input-size sweep.

C1 retrains from a fresh fixed-seed initialization on the metric-ordered
Train*, C2 from the original model's weights on the same pool, C3 from the
original weights on the adversarial inputs only. A metric's scores are one
float64 array indexed by Train* row id; `order_inputs` sorts it and
`ordered_pool_ids` keeps the pool's rows in that order. Every data point
restarts from its configuration's initial weights, so points are independent:
`run_experiments` runs every point of a run as one job on a fork-based
process pool, handing the jobs out in chunks. GR_THREADS is the only control
of its process count (`max_workers`; default: every usable core; 1 runs the
points in-process), and `RetrainBatch.workers` reports the count used. A
point sends back its accuracies and wall time, never its trained weights,
which only an in-process `retrain_point` call returns. A record computes from
its runs the best Test* accuracy, the smallest input size attaining it (u),
and u/Tn as resource utilization. Every point trains with the run's one
TrainParams, the point index being its shuffle stream.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from ._blas import pin_one_blas_thread
from .attack import AugmentedSets
from .metrics import order_inputs, timed_scoring
from .model import (
    INFERENCE_BATCH,
    Dataset,
    ModelState,
    TrainParams,
    _forward_batches,
    accuracy,
    build_model,
    train,
)

if TYPE_CHECKING:  # config imports this module
    from .config import ExperimentConfig

_CONFIGS = {"C1": (False, False), "C2": (True, False), "C3": (True, True)}
CONFIG_KINDS = tuple(_CONFIGS)

SWEEP_POINTS = 20


def sweep_sizes(total: int) -> list[int]:
    """Strictly increasing input sizes round(i*total/SWEEP_POINTS), ending at total."""
    if total < SWEEP_POINTS:
        raise ValueError(f"need at least {SWEEP_POINTS} inputs, got {total}")
    sizes = []
    for i in range(1, SWEEP_POINTS + 1):
        s = total if i == SWEEP_POINTS else int(np.floor(i * total / SWEEP_POINTS + 0.5))
        if sizes and s <= sizes[-1]:  # collapse duplicates upward
            s = sizes[-1] + 1
        sizes.append(s)
    if sizes[-1] != total:
        raise ValueError(f"sweep overflow: {sizes[-1]} > {total}")
    return sizes


@dataclass(frozen=True)
class RetrainRun:
    """One data point's results; the trained weights are not kept."""

    kind: str
    metric: str
    point_index: int
    input_size: int
    accuracy_test_star: float
    accuracy_test: float
    accuracy_adv_test: float
    wall_seconds: float


@dataclass(frozen=True)
class ExperimentRecord:
    """One (configuration, metric) sweep; its figures are computed from `runs`."""

    kind: str
    metric: str
    runs: tuple
    pool_total: int  # Tn
    original_accuracy: float  # M's accuracy on Test*

    @property
    def best_accuracy(self) -> float:
        return max(r.accuracy_test_star for r in self.runs)

    @property
    def best_input_size(self) -> int:
        """u: the smallest input size attaining best_accuracy."""
        best = self.best_accuracy
        return min(r.input_size for r in self.runs if r.accuracy_test_star == best)

    @property
    def resource_utilization(self) -> float:
        """u / Tn, refused unless 1 <= u <= Tn."""
        return resource_utilization(self.best_input_size, self.pool_total)

    def resource_string(self) -> str:
        return f"{self.best_input_size}/{self.pool_total}"


def resource_utilization(u: int, total: int) -> float:
    if total < 1 or u < 1 or u > total:
        raise ValueError(f"bad resource ratio {u}/{total}")
    return u / total


def _configuration(kind: str) -> tuple[bool, bool]:
    """What the paper defines of a configuration: (its points start from M,
    not a fresh initialization; they retrain on Adv-Train only, not Train*)."""
    if kind not in _CONFIGS:
        raise ValueError(f"unknown configuration {kind!r}")
    return _CONFIGS[kind]


def sweep_pool_size(kind: str, metric: str, clean_rows: int, adversarial_rows: int) -> int:
    """Rows of the pool a (kind, metric) sweep retrains on: Train* (the clean
    rows and Adv-Train) for C1/C2, Adv-Train for C3. A pool smaller than the
    sweep is refused, naming the pair and where its size comes from."""
    adversarial_only = _configuration(kind)[1]
    size = adversarial_rows if adversarial_only else clean_rows + adversarial_rows
    if size < SWEEP_POINTS:
        source = "Adv-Train, set by attack.fraction" if adversarial_only else "all of Train*"
        raise ValueError(f"{kind}/{metric} pool has {size} inputs; a {SWEEP_POINTS}-point "
                         f"sweep needs at least {SWEEP_POINTS} ({kind} retrains on {source})")
    return size


def initial_model(kind: str, original: ModelState, fresh_init_seed: int) -> ModelState:
    """The weights a data point starts from: fresh init for C1, M for C2/C3."""
    return original if _configuration(kind)[0] else build_model(original.architecture,
                                                                fresh_init_seed)


def ordered_pool_ids(kind: str, sets: AugmentedSets, order) -> np.ndarray:
    """Train* row ids forming the retraining pool, in metric order.

    C1/C2 draw from all of Train*; C3 keeps only the adversarial rows.
    """
    adversarial_only = _configuration(kind)[1]
    order = np.asarray(order, dtype=np.int64)
    if not np.array_equal(np.sort(order), np.arange(len(sets.train_star))):
        raise ValueError("ordering is not a permutation of Train* ids")
    return order[sets.train_star_is_adversarial[order]] if adversarial_only else order


def retrain_point(kind: str, start: ModelState, pool: Dataset, size: int, hp: TrainParams,
                  point_index: int, eval_sets: AugmentedSets,
                  metric: str = "") -> tuple[RetrainRun, ModelState]:
    """(run, trained model) of one data point: train `start`, the
    configuration's initial weights (see initial_model), on the first `size`
    ordered pool inputs, shuffled by stream `point_index`."""
    if size > len(pool):
        raise ValueError(f"size {size} exceeds pool of {len(pool)}")
    t0 = time.monotonic()
    # the point's own shuffle stream keeps parallel points independent
    trained = train(start, pool.take(range(size)), replace(hp, shuffle_stream=point_index))
    # one labels-only pass over Test*: its clean rows are Test, its
    # adversarial rows are Adv-Test in order, and a row's prediction does not
    # depend on its batch
    test_star = eval_sets.test_star
    hits = _forward_batches(trained, test_star.images, INFERENCE_BATCH, {})[0] == test_star.labels
    adversarial = eval_sets.test_star_is_adversarial
    run = RetrainRun(
        kind=kind,
        metric=metric,
        point_index=point_index,
        input_size=size,
        accuracy_test_star=float(np.mean(hits)),
        accuracy_test=float(np.mean(hits[~adversarial])),
        accuracy_adv_test=float(np.mean(hits[adversarial])),
        wall_seconds=time.monotonic() - t0,
    )
    return run, trained


def max_workers() -> int:
    """Retraining process count: GR_THREADS, else every usable core."""
    raw = os.environ.get("GR_THREADS")
    if raw is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"GR_THREADS must be an integer, got {raw!r}")
    return max(1, n)


@dataclass(frozen=True)
class RetrainBatch:
    """The records of one `run_experiments` call, in the order of its pairs."""

    records: tuple
    workers: int  # processes that ran the points; 1 means in-process, 0 none (loaded)
    worker_cpu_seconds: float  # user + system CPU of the pool's workers


# Inputs of the running `run_experiments` calls, keyed by call. Forked workers
# inherit them, so a job is pickled as (call, pair, point) alone.
_SHARED: dict = {}
_calls = itertools.count()


def _point_job(call: int, pair: int, point: int) -> RetrainRun:
    sets, hp, plans = _SHARED[call]
    kind, metric, start, pool, sizes = plans[pair]
    try:
        run, _ = retrain_point(kind, start, pool, sizes[point], hp, point, sets, metric=metric)
    except Exception as exc:
        raise RuntimeError(f"retraining {kind}/{metric} point {point} failed: {exc!r}") from exc
    return run


def _pooled(ctx, workers: int, call: int, jobs) -> tuple[dict, float]:
    """Run jobs on a fork pool; returns {job: run} and the workers' CPU seconds."""
    import resource
    from concurrent.futures import ProcessPoolExecutor

    # about 8 chunks per worker: few round trips, and the small jobs at the
    # end of the largest-first list still even out the workers' loads
    chunksize = max(1, len(jobs) // (8 * workers))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    pool_exec = ProcessPoolExecutor(max_workers=workers, mp_context=ctx,
                                    initializer=pin_one_blas_thread)
    try:
        pairs, points = zip(*jobs)
        runs = dict(zip(jobs, pool_exec.map(_point_job, itertools.repeat(call), pairs, points,
                                            chunksize=chunksize)))
    finally:
        pool_exec.shutdown(wait=True, cancel_futures=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return runs, cpu


def run_experiments(original: ModelState, sets: AugmentedSets, pairs, hp: TrainParams,
                    scored: dict, fresh_init_seed: int = 0) -> RetrainBatch:
    """Every data point of every (configuration, metric) pair in `pairs`.

    `scored` maps each metric to its (values, seconds), values being the
    float64 score of each Train* row. C1 starts from `build_model` at
    `fresh_init_seed`; each pair's start weights are resolved once. A pool
    smaller than the sweep is refused (see sweep_pool_size). All points are
    independent jobs, run largest input first on a fork-based process pool
    of `max_workers()` processes, capped at the job count. With one worker,
    or without `fork`, they run in-process. Records come back in `pairs`
    order, runs in point order, each with M's accuracy on Test*.
    """
    plans = []
    for kind, metric in pairs:
        size = sweep_pool_size(kind, metric, sets.train_clean, len(sets.train_sources))
        pool = sets.train_star.take(ordered_pool_ids(kind, sets, order_inputs(scored[metric][0])))
        plans.append((kind, metric, initial_model(kind, original, fresh_init_seed), pool,
                      sweep_sizes(size)))
    sizes = {(p, i): size for p, (*_, pair_sizes) in enumerate(plans)
             for i, size in enumerate(pair_sizes)}
    jobs = sorted(sizes, key=lambda job: -sizes[job])  # largest first, ties in record order
    workers = min(max_workers(), max(1, len(jobs)))
    ctx = None
    if workers > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            ctx = multiprocessing.get_context("fork")
    call = next(_calls)
    _SHARED[call] = (sets, hp, plans)
    try:
        if ctx is None:
            workers, cpu = 1, 0.0
            runs = {job: _point_job(call, *job) for job in jobs}
        else:
            runs, cpu = _pooled(ctx, workers, call, jobs)
    finally:
        del _SHARED[call]
    original_accuracy = accuracy(original, sets.test_star)
    records = tuple(
        ExperimentRecord(kind, metric, tuple(runs[p, i] for i in range(len(pair_sizes))),
                         len(pool), original_accuracy)
        for p, (kind, metric, _, pool, pair_sizes) in enumerate(plans))
    return RetrainBatch(records=records, workers=workers, worker_cpu_seconds=cpu)


def run_experiment(original: ModelState, sets: AugmentedSets, metric: str, kind: str,
                   hp: TrainParams, cfg: ExperimentConfig, scored=None,
                   fresh_init_seed: int = 0) -> ExperimentRecord:
    """All 20 data points of one (configuration, metric) pair.

    The metric is scored under `cfg` (see timed_scoring) unless `scored`
    carries a precomputed (values, seconds) pair, so several
    configurations can share one timed metric computation.
    """
    if scored is None:
        scored = timed_scoring(metric, original, sets.train_star, cfg)
    return run_experiments(original, sets, [(kind, metric)], hp, {metric: scored},
                           fresh_init_seed).records[0]


@dataclass(frozen=True)
class ComparisonRow:
    kind: str
    metric: str
    accuracy: float
    inputs_used: int
    pool_total: int
    flagged: bool  # True when no sweep point matched C3's budget exactly

    def resource_string(self) -> str:
        return f"{self.inputs_used}/{self.pool_total}"


def compare_records(records) -> list[ComparisonRow]:
    """C2 at C3's input budget next to C3's best, per metric.

    For each metric with both a C2 and a C3 record, reports the C2 data point
    whose size equals C3's pool size (falling back, flagged, to the nearest
    smaller point) alongside C3's best run.
    """
    by_key = {(r.kind, r.metric): r for r in records}
    rows: list[ComparisonRow] = []
    for (kind, metric), c3 in sorted(by_key.items()):
        if kind != "C3":
            continue
        c2 = by_key.get(("C2", metric))
        if c2 is None:
            continue
        budget = c3.pool_total
        exact = [r for r in c2.runs if r.input_size == budget]
        if exact:
            picked, flagged = exact[0], False
        else:
            smaller = [r for r in c2.runs if r.input_size < budget]
            if not smaller:
                raise ValueError(f"no C2 data point at or below budget {budget}")
            picked, flagged = max(smaller, key=lambda r: r.input_size), True
        rows.append(ComparisonRow("C2", metric, picked.accuracy_test_star,
                                  picked.input_size, c2.pool_total, flagged))
        rows.append(ComparisonRow("C3", metric, c3.best_accuracy,
                                  c3.best_input_size, c3.pool_total, False))
    return rows
