import dataclasses
import os

import numpy as np
import pytest

from guidedretrain.attack import attack_count, build_augmented_sets
from guidedretrain.autodiff import Dense, Relu
from guidedretrain.config import ExperimentConfig
from guidedretrain.metrics import order_inputs, timed_scoring
from guidedretrain.model import (
    ArchitectureDescriptor,
    Dataset,
    ModelState,
    TrainParams,
    accuracy,
    build_model,
    model_bytes,
)
from guidedretrain.retrain import (
    ComparisonRow,
    ExperimentRecord,
    RetrainRun,
    compare_records,
    initial_model,
    ordered_pool_ids,
    resource_utilization,
    retrain_point,
    run_experiment,
    run_experiments,
    sweep_pool_size,
    sweep_sizes,
)
from guidedretrain.rng import Pcg32


# the Random metric's seed these tests were written for
RANDOM_SEED_0 = ExperimentConfig(seed_random_metric=0)


def tiny_model(classes=2, seed=0):
    arch = ArchitectureDescriptor(
        (4, 4, 1), classes,
        (Dense("d1", 6), Relu("r1"), Dense("out", classes)),
    )
    return build_model(arch, seed=seed)


def toy_sets(n_train=40, n_test=12, classes=2, model=None, seed=0, fraction=0.5):
    rng = Pcg32(seed)
    def make(n, s):
        r = Pcg32(s)
        images = r.uniforms(n * 16).reshape(n, 4, 4, 1).astype(np.float32)
        labels = np.arange(n, dtype=np.int64) % classes
        return Dataset(images, labels, class_count=classes)
    train_set = make(n_train, seed)
    test_set = make(n_test, seed + 1)
    m = model if model is not None else tiny_model(classes)
    sets = build_augmented_sets(m, train_set, test_set, fraction, 0.1, seed=seed)
    return m, sets


def test_sweep_sizes_of_5000():
    sizes = sweep_sizes(5000)
    assert 3500 in sizes and 4000 in sizes
    assert sizes[-1] == 5000
    assert sizes == [250 * i for i in range(1, 21)]


def test_sweep_sizes_of_3000():
    sizes = sweep_sizes(3000)
    assert 1500 in sizes and 2400 in sizes and 2850 in sizes
    assert sizes[-1] == 3000


def test_sweep_sizes_minimal():
    assert sweep_sizes(20) == list(range(1, 21))


def test_sweep_sizes_strictly_increasing():
    for total in (20, 21, 37, 99, 1000, 31366):
        sizes = sweep_sizes(total)
        assert len(sizes) == 20
        assert sizes[-1] == total
        assert all(b > a for a, b in zip(sizes, sizes[1:])), total


def test_sweep_sizes_rejects_small_pool():
    with pytest.raises(ValueError):
        sweep_sizes(19)


def test_resource_utilization_formula():
    assert resource_utilization(14400, 36366) == pytest.approx(0.3960, abs=1e-4)
    assert resource_utilization(5, 10) == 0.5
    with pytest.raises(ValueError):
        resource_utilization(11, 10)


def ordered_pool(kind, sets, order):
    """The retraining pool in metric order: Train* for C1/C2, Adv-Train for C3."""
    return sets.train_star.take(ordered_pool_ids(kind, sets, order))


def test_initial_model_semantics():
    m = tiny_model(seed=3)
    c1 = initial_model("C1", m, fresh_init_seed=77)
    fresh = build_model(m.architecture, 77)
    for key in fresh.parameters:
        assert np.array_equal(c1.parameters[key], fresh.parameters[key])
    for kind in ("C2", "C3"):
        start = initial_model(kind, m, fresh_init_seed=77)
        for key in m.parameters:
            assert np.array_equal(start.parameters[key], m.parameters[key])
    with pytest.raises(ValueError):
        initial_model("C9", m, 0)


def test_ordered_pool_c3_is_adversarial_only():
    m, sets = toy_sets()
    order = list(range(len(sets.train_star)))[::-1]
    pool = ordered_pool("C3", sets, order)
    assert len(pool) == len(sets.adv_train)
    # reversed order puts the adversarial block (appended last) first
    adv_rows = np.flatnonzero(sets.train_star_is_adversarial)[::-1]
    assert np.array_equal(pool.images, sets.train_star.images[adv_rows])


def test_ordered_pool_c1_c2_use_full_train_star():
    m, sets = toy_sets()
    order = list(range(len(sets.train_star)))
    for kind in ("C1", "C2"):
        pool = ordered_pool(kind, sets, order)
        assert len(pool) == len(sets.train_star)
    with pytest.raises(ValueError):
        ordered_pool("C2", sets, order[:-1])


def test_retrain_point_epochs_zero_keeps_model_accuracy():
    m, sets = toy_sets()
    pool = ordered_pool("C2", sets, range(len(sets.train_star)))
    hp = TrainParams(epochs=0)
    run, model = retrain_point("C2", m, pool, len(pool), hp, point_index=0, eval_sets=sets)
    assert run.accuracy_test_star == accuracy(m, sets.test_star)
    for key in m.parameters:
        assert np.array_equal(model.parameters[key], m.parameters[key])


def test_retrain_point_deterministic():
    m, sets = toy_sets()
    pool = ordered_pool("C3", sets, range(len(sets.train_star)))
    hp = TrainParams(epochs=2, shuffle_seed=5)
    a, model_a = retrain_point("C3", m, pool, len(pool), hp, point_index=3, eval_sets=sets)
    b, model_b = retrain_point("C3", m, pool, len(pool), hp, point_index=3, eval_sets=sets)
    assert a.accuracy_test_star == b.accuracy_test_star
    for key in model_a.parameters:
        assert np.array_equal(model_a.parameters[key], model_b.parameters[key])


def test_retrain_point_splits_one_test_star_pass():
    # 2 x 150 Test* rows: the one pass batches them across the boundary
    # between clean and adversarial rows, while separate passes over Test
    # and Adv-Test would batch each half on its own
    m, sets = toy_sets(n_train=40, n_test=150)
    assert len(sets.test_star) > 256
    pool = ordered_pool("C2", sets, range(len(sets.train_star)))
    run, model = retrain_point("C2", m, pool, len(pool), TrainParams(epochs=1, shuffle_seed=2),
                               point_index=1, eval_sets=sets)
    clean = sets.test_star.take(np.flatnonzero(~sets.test_star_is_adversarial))
    assert run.accuracy_test_star == accuracy(model, sets.test_star)
    assert run.accuracy_test == accuracy(model, clean)
    assert run.accuracy_adv_test == accuracy(model, sets.adv_test)


@pytest.mark.parametrize("fraction", [0.05, 0.3, 1.0])
def test_sweep_pool_size_matches_the_pools(fraction):
    m, sets = toy_sets(n_train=40, n_test=4, fraction=fraction)
    n = sets.train_clean
    for kind in ("C1", "C2", "C3"):
        pool = len(ordered_pool_ids(kind, sets, range(len(sets.train_star))))
        if pool < 20:
            with pytest.raises(ValueError, match=f"{kind}/NC pool has {pool} inputs"):
                sweep_pool_size(kind, "NC", n, attack_count(n, fraction))
        else:
            assert sweep_pool_size(kind, "NC", n, attack_count(n, fraction)) == pool


def test_retrain_point_rejects_oversized_request():
    m, sets = toy_sets()
    pool = ordered_pool("C3", sets, range(len(sets.train_star)))
    with pytest.raises(ValueError):
        retrain_point("C3", m, pool, len(pool) + 1, TrainParams(), 0, sets)


def test_c1_start_is_built_once_per_pair(monkeypatch):
    from guidedretrain import retrain

    built = []
    real = retrain.build_model

    def counting(arch, seed):
        built.append(seed)
        return real(arch, seed)

    monkeypatch.setattr(retrain, "build_model", counting)
    m, sets = toy_sets(n_train=40, n_test=8)
    pairs = [("C1", "RANDOM"), ("C2", "RANDOM"), ("C1", "NC"), ("C3", "NC")]
    scored = {metric: timed_scoring(metric, m, sets.train_star, RANDOM_SEED_0)
              for metric in ("RANDOM", "NC")}
    hp = TrainParams(epochs=1, shuffle_seed=3)
    monkeypatch.setenv("GR_THREADS", "1")
    batch = run_experiments(m, sets, pairs, hp, scored, fresh_init_seed=7)
    assert built == [7, 7]
    # each point equals one trained from a start of its own
    record = batch.records[2]
    pool = ordered_pool("C1", sets, order_inputs(scored["NC"][0]))
    for run in (record.runs[0], record.runs[-1]):
        alone, _ = retrain_point("C1", real(m.architecture, 7), pool, run.input_size, hp,
                                 run.point_index, sets, metric="NC")
        assert (alone.accuracy_test_star, alone.accuracy_test, alone.accuracy_adv_test) == \
            (run.accuracy_test_star, run.accuracy_test, run.accuracy_adv_test)


def test_run_experiment_record_shape(monkeypatch):
    monkeypatch.setenv("GR_THREADS", "1")
    m, sets = toy_sets(n_train=60, n_test=10)
    record = run_experiment(m, sets, "RANDOM", "C2", TrainParams(epochs=1), RANDOM_SEED_0)
    assert len(record.runs) == 20
    sizes = [r.input_size for r in record.runs]
    assert all(b > a for a, b in zip(sizes, sizes[1:]))
    assert sizes[-1] == len(sets.train_star)
    assert record.best_accuracy == max(r.accuracy_test_star for r in record.runs)
    attaining = [r.input_size for r in record.runs if r.accuracy_test_star == record.best_accuracy]
    assert record.best_input_size == min(attaining)
    assert record.resource_utilization == record.best_input_size / record.pool_total
    assert record.best_accuracy >= record.runs[0].accuracy_test_star
    assert record.resource_string() == f"{record.best_input_size}/{record.pool_total}"


def test_run_experiment_c3_pool_total_is_adv_count(monkeypatch):
    monkeypatch.setenv("GR_THREADS", "1")
    m, sets = toy_sets(n_train=60, n_test=10)
    record = run_experiment(m, sets, "RANDOM", "C3", TrainParams(epochs=1), RANDOM_SEED_0)
    assert record.pool_total == len(sets.adv_train)
    assert record.runs[-1].input_size == len(sets.adv_train)


def test_run_experiment_parallel_matches_sequential(monkeypatch):
    m, sets = toy_sets(n_train=50, n_test=8)
    monkeypatch.setenv("GR_THREADS", "1")
    seq = run_experiment(m, sets, "RANDOM", "C2", TrainParams(epochs=1), RANDOM_SEED_0)
    monkeypatch.setenv("GR_THREADS", "4")
    par = run_experiment(m, sets, "RANDOM", "C2", TrainParams(epochs=1), RANDOM_SEED_0)

    def accuracies(record):
        return [(r.accuracy_test_star, r.accuracy_test, r.accuracy_adv_test) for r in record.runs]

    assert accuracies(seq) == accuracies(par)


def _record(kind, metric, sizes_accs, pool_total):
    runs = tuple(
        RetrainRun(kind, metric, i, size, acc, acc, acc, 0.0)
        for i, (size, acc) in enumerate(sizes_accs)
    )
    return ExperimentRecord(kind, metric, runs, pool_total, 0.5)


def test_compare_records_exact_budget_match():
    c2 = _record("C2", "DSA", [(100, 0.5), (200, 0.7), (400, 0.9)], 400)
    c3 = _record("C3", "DSA", [(50, 0.4), (120, 0.6), (200, 0.8)], 200)
    rows = compare_records([c2, c3])
    assert rows == [
        ComparisonRow("C2", "DSA", 0.7, 200, 400, False),
        ComparisonRow("C3", "DSA", 0.8, 200, 200, False),
    ]
    assert rows[0].resource_string() == "200/400"


def test_compare_records_identical_records_zero_difference():
    c2 = _record("C2", "NC", [(100, 0.5), (200, 0.7)], 200)
    c3 = _record("C3", "NC", [(100, 0.5), (200, 0.7)], 200)
    rows = compare_records([c2, c3])
    assert rows[0].accuracy == rows[1].accuracy


def test_compare_records_flags_nearest_smaller():
    c2 = _record("C2", "LSA", [(100, 0.5), (300, 0.8)], 300)
    c3 = _record("C3", "LSA", [(80, 0.4), (150, 0.6)], 150)
    rows = compare_records([c2, c3])
    assert rows[0].flagged
    assert rows[0].inputs_used == 100  # nearest smaller than budget 150
    assert not rows[1].flagged


def test_gr_threads_env_controls_fanout(monkeypatch):
    from guidedretrain.retrain import max_workers
    monkeypatch.delenv("GR_THREADS", raising=False)
    assert max_workers() == len(os.sched_getaffinity(0))  # every usable core
    monkeypatch.setenv("GR_THREADS", "3")
    assert max_workers() == 3
    monkeypatch.setenv("GR_THREADS", "0")
    assert max_workers() == 1
    monkeypatch.setenv("GR_THREADS", "lots")
    with pytest.raises(ValueError):
        max_workers()


def test_gr_threads_used_by_run_experiment(monkeypatch):
    m, sets = toy_sets(n_train=40, n_test=8)
    monkeypatch.setenv("GR_THREADS", "1")
    ref = run_experiment(m, sets, "RANDOM", "C2", TrainParams(epochs=1), RANDOM_SEED_0)
    monkeypatch.setenv("GR_THREADS", "2")
    env = run_experiment(m, sets, "RANDOM", "C2", TrainParams(epochs=1), RANDOM_SEED_0)
    assert [r.accuracy_test_star for r in ref.runs] == [r.accuracy_test_star for r in env.runs]


def random_scored(m, sets):
    return {"RANDOM": timed_scoring("RANDOM", m, sets.train_star, RANDOM_SEED_0)}


def test_pooled_models_are_frozen_and_bit_equal_to_sequential(monkeypatch, tmp_path):
    # the pool sends back no weights, so every trained model is written out,
    # by process, where it was trained
    from guidedretrain import retrain

    real = retrain.retrain_point
    parent = os.getpid()

    def writing(kind, start, pool, size, hp, point_index, eval_sets, metric=""):
        run, model = real(kind, start, pool, size, hp, point_index, eval_sets, metric=metric)
        assert not any(p.flags.writeable for p in model.parameters.values())
        where = tmp_path / ("parent" if os.getpid() == parent else "worker")
        where.mkdir(exist_ok=True)
        (where / f"{kind}-{metric}-{point_index}").write_bytes(model_bytes(model))
        return run, model

    monkeypatch.setattr(retrain, "retrain_point", writing)  # forked workers inherit it
    m, sets = toy_sets(n_train=50, n_test=8)
    pairs = [("C1", "RANDOM"), ("C3", "RANDOM")]
    scored = random_scored(m, sets)
    monkeypatch.setenv("GR_THREADS", "1")
    seq = run_experiments(m, sets, pairs, TrainParams(epochs=1), scored)
    monkeypatch.setenv("GR_THREADS", "2")
    par = run_experiments(m, sets, pairs, TrainParams(epochs=1), scored)
    names = sorted(path.name for path in (tmp_path / "parent").iterdir())
    assert len(names) == 40
    assert sorted(path.name for path in (tmp_path / "worker").iterdir()) == names
    for name in names:
        assert (tmp_path / "worker" / name).read_bytes() == \
            (tmp_path / "parent" / name).read_bytes(), name
    assert (seq.workers, seq.worker_cpu_seconds) == (1, 0.0)
    assert par.workers == 2 and par.worker_cpu_seconds > 0
    assert [(r.kind, r.metric) for r in par.records] == pairs
    for a, b in zip(seq.records, par.records):
        assert (a.best_accuracy, a.best_input_size, a.pool_total) == \
            (b.best_accuracy, b.best_input_size, b.pool_total)
        assert [r.point_index for r in b.runs] == list(range(20))
        for ra, rb in zip(a.runs, b.runs):
            assert (ra.kind, ra.metric, ra.input_size, ra.accuracy_test_star,
                    ra.accuracy_test, ra.accuracy_adv_test) == \
                (rb.kind, rb.metric, rb.input_size, rb.accuracy_test_star,
                 rb.accuracy_test, rb.accuracy_adv_test)


def reachable(root) -> list:
    """Every object reachable from `root` through dataclass fields and containers."""
    found, stack = [], [root]
    while stack:
        obj = stack.pop()
        found.append(obj)
        if dataclasses.is_dataclass(obj):
            stack.extend(getattr(obj, field.name) for field in dataclasses.fields(obj))
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
    return found


def test_batch_records_hold_no_weights(monkeypatch):
    m, sets = toy_sets(n_train=50, n_test=8)
    pairs = [("C2", "RANDOM"), ("C3", "RANDOM")]
    for workers in (1, 2):
        monkeypatch.setenv("GR_THREADS", str(workers))
        batch = run_experiments(m, sets, pairs, TrainParams(epochs=1), random_scored(m, sets))
        assert batch.workers == workers
        found = reachable(batch)
        assert sum(isinstance(obj, RetrainRun) for obj in found) == 40
        assert not [obj for obj in found if isinstance(obj, (ModelState, np.ndarray))], workers


def test_failing_pooled_point_is_named_and_leaves_no_worker(monkeypatch):
    import multiprocessing

    from guidedretrain import retrain

    real = retrain.retrain_point

    def failing(kind, start, pool, size, hp, point_index, eval_sets, metric=""):
        if (kind, point_index) == ("C3", 7):
            raise ValueError("broken point")
        return real(kind, start, pool, size, hp, point_index, eval_sets, metric=metric)

    monkeypatch.setattr(retrain, "retrain_point", failing)  # forked workers inherit it
    monkeypatch.setenv("GR_THREADS", "2")
    m, sets = toy_sets(n_train=50, n_test=8)
    with pytest.raises(RuntimeError, match="retraining C3/RANDOM point 7 failed"):
        run_experiments(m, sets, [("C1", "RANDOM"), ("C3", "RANDOM")], TrainParams(epochs=1),
                        random_scored(m, sets))
    assert multiprocessing.active_children() == []


def test_points_run_largest_input_first(monkeypatch):
    from guidedretrain import retrain

    seen = []
    real = retrain.retrain_point

    def recording(kind, start, pool, size, *args, **kwargs):
        seen.append(size)
        return real(kind, start, pool, size, *args, **kwargs)

    monkeypatch.setattr(retrain, "retrain_point", recording)
    monkeypatch.setenv("GR_THREADS", "1")
    m, sets = toy_sets(n_train=40, n_test=8)
    batch = run_experiments(m, sets, [("C3", "RANDOM"), ("C2", "RANDOM")],
                            TrainParams(epochs=0), random_scored(m, sets))
    assert len(seen) == 40 and seen == sorted(seen, reverse=True)
    for record in batch.records:
        sizes = [r.input_size for r in record.runs]
        assert sizes == sorted(sizes) and sizes[-1] == record.pool_total


def test_workers_run_on_one_blas_thread(monkeypatch):
    from guidedretrain import _blas, retrain

    lib = _blas._openblas()
    if lib is None:
        pytest.skip("NumPy is not linked against OpenBLAS")
    get, put, _ = lib
    real = retrain.retrain_point

    def reporting(*args, **kwargs):  # the worker's BLAS thread count as its wall time
        run, model = real(*args, **kwargs)
        return dataclasses.replace(run, wall_seconds=float(get())), model

    monkeypatch.setattr(retrain, "retrain_point", reporting)
    m, sets = toy_sets(n_train=40, n_test=8)
    monkeypatch.setenv("GR_THREADS", "2")
    saved = get()
    put(2)
    try:
        batch = run_experiments(m, sets, [("C2", "RANDOM")], TrainParams(epochs=0),
                                random_scored(m, sets))
        assert get() == 2  # the caller's count is its own
    finally:
        put(saved)
    assert batch.workers == 2
    assert {r.wall_seconds for r in batch.records[0].runs} == {1.0}
