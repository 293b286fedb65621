"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The heavyweight fixtures
(trained desk model, augmented sets) are shared across criteria; the whole
suite targets desk-scale runtimes.
"""

import math
import re
import time

import numpy as np
import pytest

from guidedretrain.attack import build_augmented_sets, fgsm
from guidedretrain.autodiff import Conv2D, Dense, Graph, MaxPool2D, Relu, backward_grads, forward_eval
from guidedretrain.cli import main as cli_main
from guidedretrain.config import ExperimentConfig
from guidedretrain.data import generate_synthetic
from guidedretrain.metrics import (
    active_fraction,
    dsa_scores,
    fit_dsa,
    fit_lsa,
    lsa_from_trace,
    nc_scores,
    timed_scoring,
)
from guidedretrain.model import (
    TrainParams,
    accuracy,
    activation_traces,
    build_model,
    desk_architecture,
    forward_pass,
    predict,
    train,
)
from guidedretrain.reports import compute_trend, write_summary_csv, write_timing_csv
from guidedretrain.retrain import (
    ExperimentRecord,
    RetrainRun,
    initial_model,
    ordered_pool_ids,
    resource_utilization,
    retrain_point,
    run_experiment,
    sweep_sizes,
)
from guidedretrain.rng import Pcg32

SIGMA = 1.0
ATTACK_SEED = 33
INIT_SEED = 11
SHUFFLE_SEED = 22


def report_line(number, name, detail=""):
    print(f"\nACCEPTANCE {number:>2} {name}: PASS {detail}".rstrip())


@pytest.fixture(scope="module")
def desk_data():
    train_set = generate_synthetic(classes=4, per_class=500, image_size=16,
                                   noise_sigma=SIGMA, seed=1234)
    test_set = generate_synthetic(classes=4, per_class=125, image_size=16,
                                  noise_sigma=SIGMA, seed=1235)
    return train_set, test_set


@pytest.fixture(scope="module")
def original_model(desk_data):
    train_set, _ = desk_data
    model = build_model(desk_architecture(), seed=INIT_SEED)
    return train(model, train_set, TrainParams(epochs=20, batch_size=32, lr=0.01,
                                               momentum=0.9, shuffle_seed=SHUFFLE_SEED))


@pytest.fixture(scope="module")
def augmented(desk_data, original_model):
    train_set, test_set = desk_data
    return build_augmented_sets(original_model, train_set, test_set, fraction=0.5,
                                epsilon=0.1, seed=ATTACK_SEED)


# ---------------------------------------------------------------- criterion 1


def _random_graph(seed):
    """One of several small architectures with random float64 parameters."""
    templates = [
        ((6, 6, 1), [Conv2D("c1", 2, 3, 1, "same"), Relu("r1"), Dense("d1", 4), Relu("r2"), Dense("out", 3)]),
        ((6, 6, 2), [Conv2D("c1", 3, 3, 2, "valid"), Relu("r1"), Dense("out", 2)]),
        ((8, 8, 1), [Conv2D("c1", 2, 3, 1, "same"), MaxPool2D("p1", 2), Relu("r1"),
                     Conv2D("c2", 3, 3, 1, "valid"), Relu("r2"), Dense("out", 3)]),
        ((4, 4, 2), [Dense("d1", 6), Relu("r1"), Dense("d2", 5), Relu("r2"), Dense("out", 4)]),
        ((8, 8, 1), [Conv2D("c1", 2, 3, 2, "same"), Relu("r1"), MaxPool2D("p1", 2), Dense("out", 2)]),
    ]
    input_shape, layers = templates[seed % len(templates)]
    shapes = {}
    shape = input_shape
    for spec in layers:
        if isinstance(spec, Conv2D):
            h, w, c = shape
            shapes[f"{spec.name}.w"] = (spec.kernel, spec.kernel, c, spec.filters)
            shapes[f"{spec.name}.b"] = (spec.filters,)
            if spec.padding == "same":
                shape = (-(-h // spec.stride), -(-w // spec.stride), spec.filters)
            else:
                shape = ((h - spec.kernel) // spec.stride + 1,
                         (w - spec.kernel) // spec.stride + 1, spec.filters)
        elif isinstance(spec, MaxPool2D):
            h, w, c = shape
            shape = (h // spec.size, w // spec.size, c)
        elif isinstance(spec, Dense):
            shapes[f"{spec.name}.w"] = (int(np.prod(shape)), spec.units)
            shapes[f"{spec.name}.b"] = (spec.units,)
            shape = (spec.units,)
    rng = Pcg32(seed, stream=7)
    params = {k: ((rng.uniforms(int(np.prod(s))) - 0.5).reshape(s)) for k, s in shapes.items()}
    graph = Graph(input_shape, layers, params, dtype=np.float64)
    x = rng.uniforms(int(np.prod(input_shape))).reshape((1,) + input_shape)
    label = int(rng.next_u32()) % graph.class_count
    return graph, x, np.array([label])


def _finite_diff(graph, x, labels, h=1e-3):
    def loss_with(params):
        saved = graph.params
        graph.params = params
        val = forward_eval(graph, x, labels).loss
        graph.params = saved
        return val

    fd = {}
    for key, base in graph.params.items():
        grad = np.zeros(base.size)
        for i in range(base.size):
            plus = {k: v.copy() for k, v in graph.params.items()}
            plus[key].reshape(-1)[i] += h
            minus = {k: v.copy() for k, v in graph.params.items()}
            minus[key].reshape(-1)[i] -= h
            grad[i] = (loss_with(plus) - loss_with(minus)) / (2 * h)
        fd[key] = grad.reshape(base.shape)
    xg = np.zeros(x.size)
    for i in range(x.size):
        xp = x.reshape(-1).copy()
        xp[i] += h
        xm = x.reshape(-1).copy()
        xm[i] -= h
        xg[i] = (forward_eval(graph, xp.reshape(x.shape), labels).loss
                 - forward_eval(graph, xm.reshape(x.shape), labels).loss) / (2 * h)
    return fd, xg.reshape(x.shape)


def _fd_one(graph, x, labels, key, flat_index, h):
    """Central difference of one parameter scalar (key=None probes the input)."""
    if key is None:
        xp = x.reshape(-1).copy()
        xp[flat_index] += h
        xm = x.reshape(-1).copy()
        xm[flat_index] -= h
        lp = forward_eval(graph, xp.reshape(x.shape), labels).loss
        lm = forward_eval(graph, xm.reshape(x.shape), labels).loss
        return (lp - lm) / (2 * h)
    plus = {k: v.copy() for k, v in graph.params.items()}
    plus[key].reshape(-1)[flat_index] += h
    minus = {k: v.copy() for k, v in graph.params.items()}
    minus[key].reshape(-1)[flat_index] -= h
    saved = graph.params
    graph.params = plus
    lp = forward_eval(graph, x, labels).loss
    graph.params = minus
    lm = forward_eval(graph, x, labels).loss
    graph.params = saved
    return (lp - lm) / (2 * h)


def _rel(a, b, floor=1e-8):
    return abs(a - b) / max(abs(a), abs(b), floor)


def test_c01_gradient_oracle():
    # Central differences at h = 1e-3 are themselves wrong where a relu or
    # pool switch falls inside the probe window. A flagged coordinate only
    # counts as a failure when the oracle is self-consistent there (FD at h
    # and h/2 agree); kink crossings are excluded and tallied.
    t0 = time.monotonic()
    worst = 0.0
    checked = 0
    kinks = 0
    for seed in range(20):
        graph, x, labels = _random_graph(seed)
        grads = backward_grads(forward_eval(graph, x, labels))
        fd, fd_input = _finite_diff(graph, x, labels)
        targets = [(key, grads.params[key].astype(np.float64), fd[key]) for key in graph.params]
        targets.append((None, grads.input_grad.astype(np.float64), fd_input))
        for key, a, b in targets:
            denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
            rel = np.abs(a - b) / denom
            checked += a.size
            for flat in np.flatnonzero(rel.reshape(-1) >= 1e-3):
                fd_h = b.reshape(-1)[flat]
                fd_h2 = _fd_one(graph, x, labels, key, int(flat), 5e-4)
                if _rel(fd_h, fd_h2) > 1e-4:
                    kinks += 1  # non-smooth point: the FD oracle is invalid here
                    continue
                raise AssertionError(
                    f"seed {seed} {key or 'input'}[{flat}]: autodiff "
                    f"{a.reshape(-1)[flat]:.6e} vs smooth FD {fd_h:.6e}")
            smooth = rel.reshape(-1)[rel.reshape(-1) < 1e-3]
            if smooth.size:
                worst = max(worst, float(smooth.max()))
    elapsed = time.monotonic() - t0
    assert worst < 1e-3, f"max relative error {worst}"
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    report_line(1, "gradient oracle",
                f"({checked} partials over 20 graphs, max rel err {worst:.2e}, "
                f"{kinks} kink crossings excluded, {elapsed:.1f}s)")


# ---------------------------------------------------------------- criterion 2


def test_c02_fgsm_identity_and_bound(original_model):
    t0 = time.monotonic()
    data = generate_synthetic(classes=4, per_class=250, image_size=16,
                              noise_sigma=SIGMA, seed=777)
    assert len(data) == 1000
    identical = fgsm(original_model, data.images, data.labels, 0.0)
    assert identical.tobytes() == data.images.tobytes()
    for eps in (0.05, 0.1):
        adv = fgsm(original_model, data.images, data.labels, eps)
        sup = float(np.max(np.abs(adv - data.images)))
        assert sup <= eps + 1e-7, sup
        assert adv.min() >= 0.0 and adv.max() <= 1.0
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    report_line(2, "fgsm identity and bound", f"(1000 inputs, eps 0/0.05/0.1, {elapsed:.1f}s)")


# ---------------------------------------------------------------- criterion 3


def test_c03_attack_effectiveness(desk_data, original_model, augmented):
    t0 = time.monotonic()
    _, test_set = desk_data
    clean = accuracy(original_model, test_set)
    adv = accuracy(original_model, augmented.adv_test)
    assert clean >= 0.90, f"clean accuracy {clean}"
    assert clean - adv >= 0.30, f"drop only {clean - adv:.3f}"
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    report_line(3, "attack effectiveness",
                f"(clean {clean:.3f} -> adversarial {adv:.3f}, drop {clean - adv:.3f})")


# ---------------------------------------------------------------- criterion 4


def test_c04_metric_oracles():
    t0 = time.monotonic()
    from guidedretrain.model import ArchitectureDescriptor, Dataset

    arch = ArchitectureDescriptor(
        (4, 4, 1), 3,
        (Conv2D("c1", 2, 3, 1, "same"), Relu("r1"), Dense("d1", 4), Relu("r2"), Dense("out", 3)),
    )
    model = build_model(arch, seed=5)
    rng = Pcg32(6)
    images = rng.uniforms(90 * 16).reshape(90, 4, 4, 1).astype(np.float32)
    labels = np.arange(90, dtype=np.int64) % 3
    train_star = Dataset(images, labels, class_count=3)
    queries = rng.uniforms(30 * 16).reshape(30, 4, 4, 1).astype(np.float32)

    # DSA vs exhaustive search: exact equality
    index = fit_dsa(forward_pass(model, images), train_star)
    traces = activation_traces(model, queries, index.layers)
    pred, _ = predict(model, queries)
    for i in range(len(queries)):
        got = float(dsa_scores(index, forward_pass(model, queries[i]))[0])
        cls = int(pred[i])
        best_a, dist_a = None, math.inf
        for row in index.class_traces[cls]:
            s = 0.0
            for x, y in zip(traces[i], row):
                s += (x - y) ** 2
            d = math.sqrt(s)
            if d < dist_a:
                dist_a, best_a = d, row
        dist_b = math.inf
        for other, rows in index.class_traces.items():
            if other == cls:
                continue
            for row in rows:
                s = 0.0
                for x, y in zip(best_a, row):
                    s += (x - y) ** 2
                dist_b = min(dist_b, math.sqrt(s))
        assert got == dist_a / dist_b, i

    # LSA vs direct 64-bit kernel sum: 1e-9 relative
    est = fit_lsa(forward_pass(model, images), train_star, layer="d1", variance_threshold=0.0)
    worst_lsa = 0.0
    for i in range(len(queries)):
        fp = forward_pass(model, queries[i])
        got = lsa_from_trace(est, fp.block([est.layer])[0][est.retained], int(fp.labels[0]))
        cls = int(pred[i])
        trace = activation_traces(model, queries[i][None], ["d1"])[0][est.retained]
        refs = est.class_traces[cls]
        h = est.bandwidths[cls]
        total = 0.0
        for row in refs:
            expo = 0.0
            for t, r, hh in zip(trace, row, h):
                expo += ((t - r) / hh) ** 2
            total += math.exp(-0.5 * expo)
        norm = math.exp(-sum(math.log(hh) for hh in h) - 0.5 * len(h) * math.log(2 * math.pi))
        want = -math.log(norm * total / len(refs) + 1e-300)
        worst_lsa = max(worst_lsa, abs(got - want) / max(abs(want), 1e-12))
    assert worst_lsa < 1e-9, worst_lsa

    # NC vs direct threshold count: exact equality
    threshold = 0.5
    for i in range(len(queries)):
        got = float(nc_scores(forward_pass(model, queries[i]), threshold)[0])
        scaled = []
        for name in arch.neuron_layers():
            vals = activation_traces(model, queries[i][None], [name])[0]
            lo, hi = vals.min(), vals.max()
            scaled.append((vals - lo) / (hi - lo) if hi > lo else np.zeros_like(vals))
        assert got == active_fraction(scaled, threshold), i

    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    report_line(4, "metric oracles",
                f"(90 traces, 30 queries; DSA/NC exact, LSA rel err {worst_lsa:.1e}, {elapsed:.1f}s)")


# ---------------------------------------------------------------- criterion 5


def test_c05_resource_utilization_formula(tmp_path):
    ratio = resource_utilization(14400, 36366)
    assert abs(ratio - 0.3960) < 1e-4
    runs = tuple(RetrainRun("C2", "DSA", i, s, a, a, a, 0.0)
                 for i, (s, a) in enumerate([(14400, 0.953), (36366, 0.95)]))
    record = ExperimentRecord("C2", "DSA", runs, 36366, 0.589)
    assert (record.best_accuracy, record.best_input_size) == (0.953, 14400)
    assert record.resource_utilization == ratio
    path = tmp_path / "summary.csv"
    write_summary_csv([record], path=path)
    text = path.read_text()
    assert "14400/36366" in text
    assert "0.3960" in text
    report_line(5, "resource utilization formula",
                f"(14400/36366 = {ratio:.6f}, rendered both ways)")


# ---------------------------------------------------------------- criterion 6


def test_c06_sweep_shape():
    s5000 = sweep_sizes(5000)
    assert 3500 in s5000 and 4000 in s5000 and s5000[-1] == 5000
    s3000 = sweep_sizes(3000)
    assert 1500 in s3000 and 2400 in s3000 and 2850 in s3000 and s3000[-1] == 3000
    report_line(6, "sweep shape", "(5000 and 3000 input pools)")


# ---------------------------------------------------------------- criterion 7


def test_c07_retraining_recovery(desk_data, original_model, augmented):
    t0 = time.monotonic()
    star0 = accuracy(original_model, augmented.test_star)
    cfg = ExperimentConfig()
    scored = timed_scoring("DSA", original_model, augmented.train_star, cfg)
    record = run_experiment(original_model, augmented, "DSA", "C2",
                            TrainParams(epochs=10, shuffle_seed=44), cfg,
                            scored=scored)
    gain = record.best_accuracy - star0
    elapsed = time.monotonic() - t0
    assert gain >= 0.15, f"gain only {gain:.3f} (M {star0:.3f} -> best {record.best_accuracy:.3f})"
    assert elapsed < 900.0, f"took {elapsed:.1f}s"
    report_line(7, "retraining recovery",
                f"(Test* {star0:.3f} -> {record.best_accuracy:.3f}, gain {gain:.3f}, {elapsed:.0f}s)")


# ---------------------------------------------------------------- criterion 8


def test_c08_configuration_semantics(original_model, augmented):
    fresh_seed = INIT_SEED + 1
    fresh = build_model(original_model.architecture, fresh_seed)
    for kind, reference in (("C1", fresh), ("C2", original_model), ("C3", original_model)):
        start = initial_model(kind, original_model, fresh_seed)
        for key in reference.parameters:
            assert np.array_equal(start.parameters[key], reference.parameters[key]), (kind, key)
        # the zero-epoch retraining path returns exactly those weights
        pool = augmented.train_star.take(
            ordered_pool_ids(kind, augmented, range(len(augmented.train_star))))
        _, model = retrain_point(kind, start, pool, min(32, len(pool)), TrainParams(epochs=0), 0,
                                 augmented)
        for key in reference.parameters:
            assert np.array_equal(model.parameters[key], reference.parameters[key]), (kind, key)

    # C3 pool is adversarial-provenance only
    order = list(range(len(augmented.train_star)))
    pool = augmented.train_star.take(ordered_pool_ids("C3", augmented, order))
    adversarial = augmented.train_star_is_adversarial
    adv_rows = [i for i in order if adversarial[i]]
    assert len(pool) == len(adv_rows) == len(augmented.adv_train)
    adv_train_rows = len(augmented.train_star) - len(augmented.train_sources) + np.arange(
        len(augmented.train_sources))
    assert set(adv_train_rows.tolist()) == set(adv_rows)
    assert np.array_equal(pool.images, augmented.train_star.images[adv_rows])
    report_line(8, "configuration semantics",
                "(C1 fresh init, C2/C3 bit-equal to M, C3 pool adversarial only)")


# ---------------------------------------------------------------- criterion 9


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


def test_c09_run_determinism(tmp_path):
    cfg_path = tmp_path / "experiment.cfg"
    cfg_path.write_text(MINI_CONFIG)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    names = ["points.csv", "summary.csv", "comparison.csv", "plot_c2.csv", "plot_c3.csv"]
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    report_line(9, "run determinism", f"({', '.join(names)} byte-identical)")


# ---------------------------------------------------------------- criterion 10


def test_c10_trend_report(tmp_path):
    t0 = time.monotonic()
    cfg = ExperimentConfig(
        synthetic_per_class_train=150,
        synthetic_per_class_test=50,
        train_epochs=12,
        retrain_epochs=3,
        attack_fraction=0.5,
        out=str(tmp_path / "trend"),
    )
    seeds = [1234, 1334, 1434, 1534, 1634]
    report = compute_trend(cfg, seeds, tmp_path / "trend")
    elapsed = time.monotonic() - t0
    assert len(report.rows) == len(seeds) * 3
    assert (tmp_path / "trend" / "trend.csv").exists()
    summary_text = (tmp_path / "trend" / "trend_summary.csv").read_text()
    assert "mean_size_at_95pct_sa_best" in summary_text
    assert "mean_size_at_95pct_random" in summary_text
    assert "sa_reaches_with_fewer_inputs" in summary_text
    verdict = "holds" if report.sa_reaches_with_fewer_inputs else "does NOT hold on these seeds"
    # expected, non-gating: the comparison itself must exist either way
    report_line(10, "trend report",
                f"(mean size@95%: SA-best {report.mean_sa_best:.0f} vs Random "
                f"{report.mean_random:.0f}; inequality {verdict}; {elapsed:.0f}s)")


# ---------------------------------------------------------------- criterion 11


def test_c11_timing_accounting(original_model, augmented, tmp_path):
    cfg = ExperimentConfig()
    timings = []
    for metric in ("NC", "LSA", "DSA", "RANDOM"):
        _, seconds = timed_scoring(metric, original_model, augmented.train_star, cfg)
        timings.append((metric, seconds))
    path = tmp_path / "timing.csv"
    write_timing_csv(timings, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "metric,seconds,duration"
    parsed = {}
    for line in lines[1:]:
        metric, seconds, duration = line.split(",")
        assert re.fullmatch(r"\d{2}:\d{2}:\d{2}", duration), duration
        parsed[metric] = (float(seconds), duration)
    for metric in ("NC", "LSA", "DSA"):
        seconds, duration = parsed[metric]
        assert seconds > 0.0, metric
    assert parsed["RANDOM"][0] <= 1.0
    detail = ", ".join(f"{m} {parsed[m][1]}" for m in ("NC", "LSA", "DSA", "RANDOM"))
    report_line(11, "timing accounting", f"({detail})")
