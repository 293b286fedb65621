import math
import time
import tracemalloc

import numpy as np
import pytest

from guidedretrain.attack import build_augmented_sets
from guidedretrain.autodiff import Conv2D, Dense, Relu
from guidedretrain.config import ExperimentConfig, parse_config, with_overrides
from guidedretrain.metrics import (
    DSA_ZERO_DENOMINATOR_SENTINEL,
    METRICS,
    LsaEstimator,
    active_fraction,
    cdist,
    default_lsa_layer,
    dsa_from_traces,
    dsa_index,
    dsa_scores,
    fit_dsa,
    fit_lsa,
    guidance_layers,
    lsa_from_trace,
    lsa_scores,
    nc_scores,
    order_inputs,
    random_scores,
    SharedPass,
    _BLOCK_ROWS,
    _present,
    score_metrics,
    scott_bandwidths,
    timed_scoring,
)
from guidedretrain.model import (
    ArchitectureDescriptor,
    Dataset,
    ForwardPass,
    ModelState,
    build_model,
    desk_architecture,
    forward_pass,
    trace_columns,
)
from guidedretrain.reports import format_duration, scores_to_csv
from guidedretrain.rng import Pcg32
from guidedretrain.stages import Spine


# the Random metric's seed these tests were written for
RANDOM_SEED_0 = ExperimentConfig(seed_random_metric=0)


def tiny_cnn(classes=3, seed=0):
    arch = ArchitectureDescriptor(
        input_shape=(4, 4, 1),
        classes=classes,
        layers=(
            Conv2D("c1", filters=2, kernel=3, stride=1, padding="same"),
            Relu("r1"),
            Dense("d1", units=4),
            Relu("r2"),
            Dense("out", units=classes),
        ),
    )
    return build_model(arch, seed=seed)


def random_dataset(n, classes=3, seed=0, h=4, w=4):
    rng = Pcg32(seed)
    images = rng.uniforms(n * h * w).reshape(n, h, w, 1).astype(np.float32)
    labels = np.arange(n, dtype=np.int64) % classes
    return Dataset(images, labels, class_count=classes)


# ---------------------------------------------------------------- NC


def test_active_fraction_direct_counts():
    assert active_fraction([np.array([0.9, 0.2, 0.6, 0.4])], 0.5) == 0.5
    assert active_fraction([np.array([0.1, 0.2]), np.array([0.3])], 0.5) == 0.0
    assert active_fraction([np.array([0.9, 0.8]), np.array([0.7])], 0.5) == 1.0


def test_nc_zero_when_network_dead():
    # negative weights and zero bias with non-negative input: every relu
    # output is 0, all layers constant, so nothing counts as active
    arch = ArchitectureDescriptor(
        (2, 2, 1), 2,
        (Dense("d", 3), Relu("r"), Dense("out", 2)),
    )
    params = {
        "d.w": np.full((4, 3), -1.0, dtype=np.float32),
        "d.b": np.zeros(3, dtype=np.float32),
        "out.w": np.zeros((3, 2), dtype=np.float32),
        "out.b": np.zeros(2, dtype=np.float32),
    }
    m = ModelState(arch, params)
    img = np.full((2, 2, 1), 0.5, dtype=np.float32)
    assert float(nc_scores(forward_pass(m, img), 0.5)[0]) == 0.0


def test_nc_bounds_and_threshold_monotonicity():
    m = tiny_cnn()
    images = random_dataset(20).images
    prev = None
    for threshold in (0.0, 0.25, 0.5, 0.75, 1.0):
        vals = nc_scores(forward_pass(m, images), threshold)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        if prev is not None:
            assert np.all(vals <= prev + 1e-12)
        prev = vals


def test_nc_matches_direct_count():
    m = tiny_cnn(seed=3)
    img = random_dataset(1, seed=5).images[0]
    threshold = 0.5
    # oracle: recompute from raw post-activation values
    from guidedretrain.model import activation_traces

    arch = m.architecture
    scaled = []
    for name in arch.neuron_layers():
        vals = activation_traces(m, img[None], [name])[0]
        lo, hi = vals.min(), vals.max()
        scaled.append((vals - lo) / (hi - lo) if hi > lo else np.zeros_like(vals))
    expected = active_fraction(scaled, threshold)
    assert float(nc_scores(forward_pass(m, img), threshold)[0]) == expected


def test_nc_batching_invariant():
    m = tiny_cnn()
    images = random_dataset(15).images
    a = nc_scores(forward_pass(m, images, batch_size=256), 0.5)
    b = nc_scores(forward_pass(m, images, batch_size=4), 0.5)
    assert np.array_equal(a, b)


def test_nc_row_blocks_score_as_the_whole_pass():
    m = tiny_cnn(seed=2)
    fp = forward_pass(m, random_dataset(150).images)
    traces = fp.traces.copy()
    traces[70] = 0.25  # a constant row, in the second block of 64
    traces[3, trace_columns(m.architecture)["c1"]] = -1.5  # constant within one layer
    threshold = 0.3
    # the unblocked formula: each layer's whole column block scaled at once,
    # in float64
    active = np.zeros(len(traces), dtype=np.int64)
    for cols in trace_columns(m.architecture).values():
        block = traces[:, cols].astype(np.float64)
        lo = block.min(axis=1, keepdims=True)
        span = block.max(axis=1, keepdims=True) - lo
        scaled = block - lo
        np.divide(scaled, span, out=scaled, where=span > 0)
        active += (scaled > threshold).sum(axis=1)
    want = active / traces.shape[1]
    got = nc_scores(ForwardPass(m.architecture, fp.labels, traces), threshold)
    assert got.tobytes() == want.tobytes()
    assert got[70] == 0.0


# ---------------------------------------------------------------- LSA


def test_scott_bandwidth_formula():
    rng = Pcg32(1)
    samples = rng.uniforms(50 * 3).reshape(50, 3)
    h = scott_bandwidths(samples)
    n, d = samples.shape
    for j in range(d):
        mean = sum(samples[:, j]) / n
        var = sum((v - mean) ** 2 for v in samples[:, j]) / (n - 1)
        expected = math.sqrt(var) * n ** (-1.0 / (d + 4))
        assert h[j] == pytest.approx(expected, rel=1e-12)


def test_fit_lsa_structure():
    m = tiny_cnn(classes=2)
    data = random_dataset(20, classes=2)
    est = fit_lsa(forward_pass(m, data.images), data, layer="d1", variance_threshold=0.0)
    assert set(est.class_traces) == {0, 1}
    assert est.class_traces[0].shape[0] == 10
    assert est.class_traces[1].shape[0] == 10
    for cls in (0, 1):
        assert np.all(est.bandwidths[cls] > 0)


def test_variance_filter_drops_constant_neuron():
    # relu kills a unit whose weights are all negative: constant zero output
    arch = ArchitectureDescriptor(
        (2, 2, 1), 2,
        (Dense("d1", 3), Relu("r1"), Dense("out", 2)),
    )
    w = np.array(
        [[1.0, -1.0, 0.5],
         [0.5, -1.0, 0.2],
         [0.2, -1.0, 0.1],
         [0.1, -1.0, 0.3]], dtype=np.float32)
    params = {
        "d1.w": w,
        "d1.b": np.zeros(3, dtype=np.float32),
        "out.w": np.zeros((3, 2), dtype=np.float32),
        "out.b": np.zeros(2, dtype=np.float32),
    }
    m = ModelState(arch, params)
    data = random_dataset(12, classes=2, h=2, w=2)
    est = fit_lsa(forward_pass(m, data.images), data, layer="d1", variance_threshold=1e-8)
    assert 1 not in est.retained.tolist()
    assert 0 in est.retained.tolist()


def test_lsa_one_dimensional_oracle():
    # three 1-D reference traces with a known bandwidth; direct sum by hand
    refs = np.array([[0.0], [1.0], [2.0]], dtype=np.float64)
    h = np.array([0.5])
    est = LsaEstimator(layer="d1", retained=np.array([0]),
                       class_traces={0: refs}, bandwidths={0: h})
    query = np.array([0.5])
    expected_density = 0.0
    for r in (0.0, 1.0, 2.0):
        u = (0.5 - r) / 0.5
        expected_density += math.exp(-0.5 * u * u) / (0.5 * math.sqrt(2 * math.pi))
    expected_density /= 3
    expected = -math.log(expected_density + 1e-300)
    got = lsa_from_trace(est, query, 0)
    assert got == pytest.approx(expected, rel=1e-9)
    # frozen value of the same computation
    assert got == pytest.approx(1.1221403198737419, rel=1e-12)


def test_lsa_decreases_toward_class_mean():
    refs = Pcg32(3).normals(400).reshape(400, 1) * 0.3 + 1.0
    est = LsaEstimator(layer="d1", retained=np.array([0]),
                       class_traces={0: refs}, bandwidths={0: scott_bandwidths(refs)})
    center = float(refs.mean())
    vals = [lsa_from_trace(est, np.array([center + off]), 0) for off in (2.0, 1.0, 0.5, 0.0)]
    assert vals[0] > vals[1] > vals[2] > vals[3]


def test_lsa_minimal_at_single_training_trace():
    refs = np.array([[1.0, 2.0]])
    # single-row class: bandwidths supplied directly (fit would reject n=1)
    est = LsaEstimator(layer="d1", retained=np.array([0, 1]),
                       class_traces={0: refs}, bandwidths={0: np.array([0.3, 0.3])})
    at_ref = lsa_from_trace(est, np.array([1.0, 2.0]), 0)
    for off in (0.1, 0.5, 2.0):
        assert lsa_from_trace(est, np.array([1.0 + off, 2.0]), 0) > at_ref


def lsa_direct(est, model, image):
    """LSA of one input by the direct kernel sum over its own forward pass."""
    fp = forward_pass(model, image)
    return lsa_from_trace(est, fp.block([est.layer])[0][est.retained], int(fp.labels[0]))


def test_lsa_determinism_and_bulk_consistency():
    m = tiny_cnn(classes=2, seed=1)
    data = random_dataset(30, classes=2, seed=7)
    est = fit_lsa(forward_pass(m, data.images), data, layer="d1", variance_threshold=0.0)
    img = data.images[3]
    a = lsa_direct(est, m, img)
    b = lsa_direct(est, m, img)
    assert a == b
    bulk = lsa_scores(est, forward_pass(m, data.images))
    singles = np.array([lsa_direct(est, m, data.images[i]) for i in range(len(data))])
    assert np.allclose(bulk, singles, rtol=1e-9, atol=1e-12)


def test_fit_lsa_rejects_small_class():
    m = tiny_cnn(classes=3)
    images = random_dataset(4, classes=3).images
    labels = np.array([0, 0, 1, 1])  # class 2 empty
    data = Dataset(images, labels, class_count=3)
    with pytest.raises(ValueError, match="class 2"):
        fit_lsa(forward_pass(m, data.images), data, layer="d1")


def test_default_lsa_layer_is_last_hidden_dense():
    assert default_lsa_layer(desk_architecture()) == "dense1"


def test_guidance_layers_split_the_comma_list():
    arch = desk_architecture()
    assert guidance_layers(ExperimentConfig(), arch) == {
        "lsa.layer": ("dense1",), "dsa.layers": ("conv1", "conv2", "dense1", "dense2")}
    # blank entries and spaces drop out; the architecture's order wins over the spelling's
    cfg = parse_config("dsa.layers = dense1, ,conv1 ,dense1")
    assert guidance_layers(cfg, arch)["dsa.layers"] == ("conv1", "dense1")
    # names the architecture lacks go last, as spelled
    cfg = parse_config("dsa.layers = relu3,conv2,dense9\nlsa.layer = relu3")
    assert guidance_layers(cfg, arch) == {
        "lsa.layer": ("relu3",), "dsa.layers": ("conv2", "dense9", "relu3")}


# ---------------------------------------------------------------- DSA


def brute_force_dsa(index, trace, cls):
    """Exhaustive oracle with scalar left-to-right accumulation."""

    def dist(a, b):
        s = 0.0
        for x, y in zip(a, b):
            s += (x - y) ** 2
        return math.sqrt(s)

    best_a, dist_a = None, math.inf
    for row in index.class_traces[cls]:
        d = dist(trace, row)
        if d < dist_a:
            dist_a, best_a = d, row
    dist_b = math.inf
    for other, rows in index.class_traces.items():
        if other == cls:
            continue
        for row in rows:
            d = dist(best_a, row)
            if d < dist_b:
                dist_b = d
    if dist_b == 0.0:
        return DSA_ZERO_DENOMINATOR_SENTINEL
    return dist_a / dist_b


def index_of(class_traces, layers=("d1",)):
    """DSA index over {class: rows} for classes 0..k-1, laid out class by class."""
    classes = sorted(class_traces)
    traces = np.concatenate([class_traces[c] for c in classes])
    labels = np.concatenate([np.full(len(class_traces[c]), c) for c in classes])
    return dsa_index(traces, labels, len(classes), layers)


def dsa_of(index, trace, cls):
    """DSA of one trace through the bulk routine."""
    trace = np.asarray(trace, dtype=np.float64)[None]
    return float(dsa_from_traces(index, trace, np.array([cls]))[0])


def test_dsa_one_dimensional_case():
    index = index_of({0: np.array([[1.0]]), 1: np.array([[3.0]])})
    assert dsa_of(index, np.array([0.0]), 0) == 0.5


def test_dsa_zero_at_matching_trace():
    index = index_of({0: np.array([[1.0, 2.0], [3.0, 4.0]]), 1: np.array([[9.0, 9.0]])})
    assert dsa_of(index, np.array([3.0, 4.0]), 0) == 0.0


def test_dsa_scaling_invariance():
    rng = Pcg32(11)
    traces = {0: rng.normals(20).reshape(10, 2), 1: rng.normals(16).reshape(8, 2)}
    index1 = index_of(traces)
    index2 = index_of({c: 2.0 * t for c, t in traces.items()})
    q = np.array([0.3, -0.2])
    assert dsa_of(index1, q, 0) == pytest.approx(dsa_of(index2, 2.0 * q, 0), rel=1e-12)


def test_dsa_zero_denominator_sentinel():
    index = index_of({0: np.array([[1.0]]), 1: np.array([[1.0]])})  # duplicate across classes
    assert dsa_of(index, np.array([5.0]), 0) == DSA_ZERO_DENOMINATOR_SENTINEL


def test_dsa_matches_brute_force_exactly():
    m = tiny_cnn(classes=3, seed=2)
    train = random_dataset(60, classes=3, seed=8)
    index = fit_dsa(forward_pass(m, train.images), train)
    assert index.dim == 2 * 16 + 4 + 3  # conv 4*4*2 + d1 + out
    queries = random_dataset(25, classes=3, seed=9)
    from guidedretrain.model import activation_traces, predict

    traces = activation_traces(m, queries.images, index.layers)
    pred, _ = predict(m, queries.images)
    for i in range(len(queries)):
        got = float(dsa_scores(index, forward_pass(m, queries.images[i]))[0])
        want = brute_force_dsa(index, traces[i], int(pred[i]))
        assert got == want, i


def test_dsa_bulk_matches_single():
    m = tiny_cnn(classes=3, seed=2)
    train = random_dataset(40, classes=3, seed=8)
    index = fit_dsa(forward_pass(m, train.images), train)
    queries = random_dataset(12, classes=3, seed=10)
    bulk = dsa_scores(index, forward_pass(m, queries.images))
    singles = np.array([float(dsa_scores(index, forward_pass(m, queries.images[i]))[0])
                        for i in range(len(queries))])
    assert np.array_equal(bulk, singles)


def assert_bulk_dsa_is_brute_force(index, queries, classes):
    got = dsa_from_traces(index, queries, np.asarray(classes))
    want = [brute_force_dsa(index, q, int(c)) for q, c in zip(queries, classes)]
    assert got.tolist() == want


def test_dsa_shortlist_duplicates_and_first_index_ties():
    # integer traces: q + v and q - v are exactly equally far from q, but
    # their nearest other-class traces differ, so the first-index rule shows
    # in the score; duplicated rows within and across classes hit the
    # zero-denominator sentinel
    rng = np.random.default_rng(3)
    q = rng.integers(-5, 6, size=40).astype(np.float64)
    v = rng.integers(-3, 4, size=40).astype(np.float64)
    w = rng.integers(-9, 10, size=(4, 40)).astype(np.float64)
    class0 = np.array([w[0], q + v, q - v, w[0], w[1]])
    class1 = np.array([q - v + 1.0, w[2], w[1]])  # w[1] duplicates a class-0 row
    class2 = np.array([q + v + 3.0, w[3], w[3]])
    index = index_of({0: class0, 1: class1, 2: class2})
    queries = np.array([q, q, w[0], w[1], w[3], q + v, w[2]])
    assert_bulk_dsa_is_brute_force(index, queries, [0, 0, 0, 0, 2, 1, 1])
    swapped = index_of({0: class0[[0, 2, 1, 3, 4]], 1: class1, 2: class2})
    assert_bulk_dsa_is_brute_force(swapped, queries, [0, 0, 0, 0, 2, 1, 1])
    assert dsa_of(index, q, 0) != dsa_of(swapped, q, 0)  # the tie decides
    assert dsa_of(index, w[1], 0) == DSA_ZERO_DENOMINATOR_SENTINEL


def test_dsa_shortlist_separates_one_ulp():
    rng = np.random.default_rng(5)
    base = rng.normal(size=(6, 30))
    near = base[2].copy()
    near[7] = np.nextafter(near[7], np.inf)
    class0 = np.vstack([base[:3], near[None], base[3:4]])
    class1 = rng.normal(size=(4, 30))
    class1[0] = near + 1e-9  # the two candidates' other-class distances differ
    index = index_of({0: class0, 1: class1})
    queries = [base[2], near, base[2] + 1e-15, near - 1e-15]
    step = np.zeros(30)
    step[7] = np.spacing(base[2][7])
    queries += [base[2] + step / 2, base[2] - step]
    assert_bulk_dsa_is_brute_force(index, np.array(queries), [0] * len(queries))


@pytest.fixture
def recheck_sizes(monkeypatch):
    """Rows each exact cdist recheck of the DSA shortlist receives."""
    from guidedretrain import metrics

    sizes = []
    cdist = metrics.cdist

    def counting_cdist(a, b, metric):
        sizes.append(len(b))
        return cdist(a, b, metric)

    monkeypatch.setattr(metrics, "cdist", counting_cdist)
    return sizes


def test_dsa_shortlist_large_norms_near_the_bound(recheck_sizes):
    # offset 1e6 makes the GEMM rounding bound (about 4 here) comparable to
    # the gaps between squared distances, so shortlists range from one row
    # to several
    rng = np.random.default_rng(7)
    d = 64
    refs = 1e6 + rng.normal(size=(60, d))
    index = dsa_index(refs, np.arange(60) % 3, 3, ("d1",))
    queries = np.vstack([1e6 + rng.normal(size=(20, d)), refs[:5]])
    assert_bulk_dsa_is_brute_force(index, queries, np.arange(len(queries)) % 3)
    assert min(recheck_sizes) == 1 and max(recheck_sizes) > 3


def test_dsa_shortlist_single_row_classes():
    rng = np.random.default_rng(9)
    index = index_of({0: rng.normal(size=(1, 12)), 1: rng.normal(size=(5, 12)),
                      2: rng.normal(size=(1, 12))})
    queries = rng.normal(size=(9, 12))
    assert_bulk_dsa_is_brute_force(index, queries, np.arange(9) % 3)


def test_dsa_shortlist_rechecks_few_rows(recheck_sizes):
    rng = np.random.default_rng(11)
    refs = rng.normal(size=(90, 50))
    index = dsa_index(refs, np.arange(90) % 3, 3, ("d1",))
    dsa_from_traces(index, refs[:30] + 1e-3, np.arange(30) % 3)
    assert max(recheck_sizes) == 1  # well-separated traces: one candidate per row


def assert_self_scored_dsa_is_brute_force(index, predicted):
    """Train* scoring itself: the index's own rows, bit for bit the oracle's."""
    got = dsa_from_traces(index, index.traces, np.asarray(predicted))
    want = [brute_force_dsa(index, t, int(c)) for t, c in zip(index.traces, predicted)]
    assert got.tobytes() == np.array(want, dtype=np.float64).tobytes()
    return got


def test_dsa_self_scored_zero_distance_cases():
    tiny = 1e-162  # its square rounds to 0.0, the square of twice it does not
    rng = np.random.default_rng(13)
    b = rng.integers(-4, 5, size=(6, 8)).astype(np.float64)
    b[:, 0] = 0.0
    b[1, -1] = 0.0
    b[4, -1] = b[3, -1]  # rows 7, 8 and 9 share the head column only
    b[5, -1] = 4.5
    rows = np.array([
        b[0],                   # 0 class 0
        b[0],                   # 1 class 0: duplicate, its a is row 0
        b[1],                   # 2 class 0
        b[1],                   # 3 class 0: head column tiny below, its a is row 2
        b[2],                   # 4 class 0: a -0.0 twin of row 6
        b[1],                   # 5 class 1: head column tiny above, at 0 from 2, not 3
        b[2],                   # 6 class 1
        b[3],                   # 7 class 1
        b[3],                   # 8 class 1: 1e-170 off row 7 in column 0
        b[4],                   # 9 class 2
        b[5],                   # 10 class 2
        b[0],                   # 11 class 2: an exact twin of rows 0 and 1
    ])
    rows[3, -1] -= tiny
    rows[5, -1] += tiny
    rows[4, 3], rows[6, 3] = -0.0, 0.0
    rows[8, 0] = 1e-170
    labels = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2])
    index = dsa_index(rows, labels, 3, ("d1",))
    got = assert_self_scored_dsa_is_brute_force(index, labels)
    sentinel = DSA_ZERO_DENOMINATOR_SENTINEL
    # row 3 alone has no twin in class 1, but its a, row 2, has row 5
    assert got.tolist() == [sentinel, sentinel, sentinel, sentinel, sentinel, sentinel,
                            sentinel, 0.0, 0.0, 0.0, 0.0, sentinel]
    # predicted classes other than the true ones, identical traces included
    predicted = labels.copy()
    predicted[[1, 3, 8, 10]] = [2, 1, 0, 0]
    assert_self_scored_dsa_is_brute_force(index, predicted)
    swapped = dsa_index(rows[[1, 0, 3, 2, *range(4, 12)]], labels, 3, ("d1",))
    got = assert_self_scored_dsa_is_brute_force(swapped, labels)
    # now row 3 has row 5 in class 1 at distance 0, but its a, row 2, has not
    assert got[2] == got[3] == 0.0
    assert_self_scored_dsa_is_brute_force(swapped, predicted)


def test_dsa_self_scored_many_duplicates():
    # rows drawn from a few patterns, some nudged by amounts whose squares
    # are 0.0 or not, under random true and predicted classes
    rng = np.random.default_rng(21)
    patterns = rng.integers(-2, 3, size=(5, 6)).astype(np.float64)
    patterns[:, 2] = 0.0
    rows = patterns[rng.integers(0, 5, size=60)]
    rows[:, 2] = rng.choice([0.0, -0.0, 1e-170, 1e-162, -1e-162, 3e-162], size=60)
    labels = np.arange(60) % 3
    index = dsa_index(rows, labels, 3, ("d1",))
    assert_self_scored_dsa_is_brute_force(index, labels)
    predicted = np.where(rng.random(60) < 0.2, rng.integers(0, 3, size=60), labels)
    assert_self_scored_dsa_is_brute_force(index, predicted)
    # one group that no column splits, with -1e-162 and +1e-162 rows, which
    # are not at distance 0 from each other
    chain = np.tile(patterns[0], (7, 1))
    chain[:, 2] = [-1e-162, 0.0, 1e-162, -1e-162, -1e-162, -1e-162, 0.0]
    index = dsa_index(np.vstack([chain, patterns[1:3]]),
                      np.array([0, 0, 1, 0, 0, 0, 0, 1, 0]), 2, ("d1",))
    got = assert_self_scored_dsa_is_brute_force(index, index.labels)
    # row 1 is at distance 0 from row 2, but its a, row 0, is not
    assert got[:7].tolist() == [0.0, 0.0, DSA_ZERO_DENOMINATOR_SENTINEL, 0.0, 0.0, 0.0, 0.0]


def test_dsa_self_scored_searches_only_mispredicted_rows(monkeypatch):
    from guidedretrain import metrics

    rng = np.random.default_rng(17)
    labels = np.arange(30) % 3
    index = dsa_index(rng.normal(size=(30, 6)).astype(np.float32), labels, 3, ("d1",))
    predicted = labels.copy()
    predicted[[4, 7, 20, 11]] = [0, 0, 0, 1]  # rows of classes 1, 1, 2 and 2
    searches = []
    nearest = metrics._nearest

    def recording(queries, q_sq, index, blocks):
        searches.append((queries.copy(), [rows.copy() for rows in blocks]))
        return nearest(queries, q_sq, index, blocks)

    monkeypatch.setattr(metrics, "_nearest", recording)
    dsa_from_traces(index, index.traces, predicted)
    # one same-class search per class with mispredicted rows, none for class 2
    same_class = [(queries, blocks[0]) for queries, blocks in searches if len(blocks) == 1]
    assert len(same_class) == 2 and len(searches) == 4
    for (queries, block), cls, rows in zip(same_class, (0, 1), ([4, 7, 20], [11])):
        assert np.array_equal(block, index.class_rows[cls])
        assert np.array_equal(queries, index.traces[rows])


def test_dsa_on_layers_that_are_not_adjacent_searches_only_mispredicted_rows(
        tmp_path, monkeypatch):
    # conv1 and dense1 are not adjacent, so their block is a copy of the
    # pass's columns; the pipeline scores the index's own copy, and a row
    # predicted into its true class still needs no search
    from guidedretrain import metrics

    cfg = with_overrides(parse_config(
        "synthetic.per_class_train = 30\nsynthetic.per_class_test = 10\n"
        "synthetic.image_size = 8\ntrain.epochs = 3\nattack.fraction = 0.5\n"
        "dsa.layers = conv1,dense1\n"), out=str(tmp_path))
    spine = Spine(cfg)
    model, train_star = spine.model, spine.sets.train_star
    searched = []
    nearest = metrics._nearest

    def recording(queries, q_sq, index, blocks):
        if len(blocks) == 1:  # a query row's same-class search
            searched.append(queries.copy())
        return nearest(queries, q_sq, index, blocks)

    monkeypatch.setattr(metrics, "_nearest", recording)
    got = score_metrics(("DSA",), model, train_star, cfg)["DSA"][0]
    monkeypatch.undo()
    fp = forward_pass(model, train_star.images)
    index = fit_dsa(fp, train_star, layers=("conv1", "dense1"))
    mispredicted = np.flatnonzero(fp.labels != train_star.labels)
    assert 0 < len(mispredicted) < len(train_star)
    queries = np.concatenate(searched)
    assert len(queries) == len(mispredicted)
    order = np.argsort(fp.labels[mispredicted], kind="stable")  # searched class by class
    assert np.array_equal(queries, index.traces[mispredicted[order]].astype(np.float64))
    assert got.tobytes() == exhaustive_cdist_dsa(index, index.traces, fp.labels).tobytes()


def test_dsa_rejects_non_finite_rows():
    refs = np.ones((4, 3))
    refs[2, 1] = np.nan
    with pytest.raises(ValueError, match="row 2"):
        dsa_index(refs, np.array([0, 1, 0, 1]), 2, ("d1",))
    index = dsa_index(np.eye(4, 3), np.array([0, 1, 0, 1]), 2, ("d1",))
    queries = np.zeros((3, 3))
    queries[1, 0] = np.inf
    with pytest.raises(ValueError, match="row 1"):
        dsa_from_traces(index, queries, np.array([0, 0, 1]))
    # float32 traces, past the first block of rows: the message names the
    # row's index in the whole matrix
    bad = _BLOCK_ROWS + 5
    refs = np.ones((_BLOCK_ROWS + 10, 3), dtype=np.float32)
    refs[bad, 1] = np.inf
    with pytest.raises(ValueError, match=f"row {bad} "):
        dsa_index(refs, np.arange(len(refs)) % 2, 2, ("d1",))
    queries = np.zeros((len(refs), 3), dtype=np.float32)
    queries[bad, 2] = -np.inf
    with pytest.raises(ValueError, match=f"row {bad} "):
        dsa_from_traces(index, queries, np.zeros(len(queries), dtype=np.int64))


def exhaustive_cdist_dsa(index, queries, classes):
    """DSA by an exhaustive cdist argmin over each class block (ties to the
    first row), then the least cdist distance to any other class."""
    out = []
    for query, cls in zip(queries, classes):
        refs = index.class_rows[int(cls)]
        dists = cdist(query[None], index.traces[refs])[0]
        a = refs[dists.argmin()]
        others = np.concatenate([rows for c, rows in index.class_rows.items() if c != cls])
        dist_b = cdist(index.traces[a][None], index.traces[others])[0].min()
        out.append(dists.min() / dist_b if dist_b > 0 else DSA_ZERO_DENOMINATOR_SENTINEL)
    return np.array(out, dtype=np.float64)


def test_dsa_float32_chunked_search_matches_exhaustive_argmin():
    # float32 traces, as a forward pass holds them. Class 0 spans three of
    # _nearest's reference chunks: q + v and q - v tie for q across the
    # first chunk boundary, and a zero-distance pair z, z straddles the
    # second. Class 1 spans two chunks and holds a row 1e-30 off z, whose
    # square is 0 in float32 but not in float64.
    rng = np.random.default_rng(29)
    d = 24
    q = rng.integers(-5, 6, size=d)
    v = rng.integers(1, 4, size=d) * rng.choice([-1, 1], size=d)
    z = rng.integers(-5, 6, size=d) + 2 * v
    z[0] = 0
    class0 = rng.integers(20, 40, size=(2 * _BLOCK_ROWS + 20, d))
    class0[_BLOCK_ROWS - 1], class0[_BLOCK_ROWS] = q + v, q - v
    class0[2 * _BLOCK_ROWS - 1] = class0[2 * _BLOCK_ROWS] = z
    class1 = rng.integers(-40, -20, size=(_BLOCK_ROWS + 10, d))
    class1[3] = q - v + 1  # near q - v only, so the tie decides q's score
    class1[_BLOCK_ROWS + 4] = z + 3
    class2 = rng.integers(-9, 10, size=(7, d))
    traces = np.vstack([class0, class1, class2]).astype(np.float32)
    near_z = len(class0) + _BLOCK_ROWS + 5
    traces[near_z] = z
    traces[near_z, 0] = 1e-30
    labels = np.repeat([0, 1, 2], [len(class0), len(class1), len(class2)])
    index = dsa_index(traces, labels, 3, ("d1",))
    assert index.traces is traces and len(index.class_rows[0]) > 2 * _BLOCK_ROWS
    queries = np.vstack([q, z, z + 1, z - 1, q + 1, class1[:3], class2[:2]]).astype(np.float32)
    predicted = np.array([0, 0, 0, 0, 0, 0, 1, 2, 0, 1])
    got = dsa_from_traces(index, queries, predicted)
    want = exhaustive_cdist_dsa(index, queries, predicted)
    assert got.tobytes() == want.tobytes()
    assert got[1] == 0.0  # z is at distance 0 from both twins
    # the tie goes to the earlier row: swapping the pair changes q's score
    swapped = traces.copy()
    swapped[[_BLOCK_ROWS - 1, _BLOCK_ROWS]] = traces[[_BLOCK_ROWS, _BLOCK_ROWS - 1]]
    swapped_index = dsa_index(swapped, labels, 3, ("d1",))
    other = dsa_from_traces(swapped_index, queries, predicted)
    assert other.tobytes() == exhaustive_cdist_dsa(swapped_index, queries, predicted).tobytes()
    assert other[0] != got[0]
    # Train* scoring itself: the twins are each other's nearest reference at
    # distance 0, and more than a block of rows searches class 1
    own = labels.copy()
    own[:_BLOCK_ROWS + 20] = 1
    own[[_BLOCK_ROWS - 1, _BLOCK_ROWS, 2 * _BLOCK_ROWS, len(class0) + 3]] = [1, 2, 1, 0]
    got = dsa_from_traces(index, index.traces, own)
    assert got.tobytes() == exhaustive_cdist_dsa(index, index.traces, own).tobytes()


def assert_float32_self_scored_is_exhaustive(traces, labels, seed):
    """Train* scoring its float32 self, under its true classes and under
    random predicted classes: bit for bit the exhaustive cdist search."""
    index = dsa_index(traces.astype(np.float32), labels, int(labels.max()) + 1, ("d1",))
    rng = np.random.default_rng(seed)
    mispredicted = np.where(rng.random(len(labels)) < 0.3,
                            rng.integers(0, index.labels.max() + 1, size=len(labels)), labels)
    for predicted in (labels, mispredicted):
        got = dsa_from_traces(index, index.traces, predicted)
        assert got.tobytes() == exhaustive_cdist_dsa(index, index.traces, predicted).tobytes()
    return dsa_from_traces(index, index.traces, labels)


def float32_rows(n, d, seed):
    return np.random.default_rng(seed).normal(size=(n, d)).astype(np.float32)


def test_dsa_float32_self_match_twins_within_one_class():
    traces = float32_rows(12, 9, 31)
    traces[[4, 7, 10]] = traces[1]  # rows 1, 4, 7 and 10 are all class 1
    got = assert_float32_self_scored_is_exhaustive(traces, np.arange(12) % 3, 41)
    assert got.tolist() == [0.0] * 12
    assert not np.signbit(got).any()


def test_dsa_float32_self_match_twins_across_classes_give_the_sentinel():
    traces = float32_rows(12, 9, 32)
    traces[5] = traces[0]  # classes 0 and 2
    traces[[4, 8]] = traces[1]  # classes 1, 1 and 2
    traces[[6, 9]] = traces[3]  # class 0 only
    got = assert_float32_self_scored_is_exhaustive(traces, np.arange(12) % 3, 42)
    sentinel = DSA_ZERO_DENOMINATOR_SENTINEL
    assert [i for i, v in enumerate(got) if v == sentinel] == [0, 1, 4, 5, 8]
    assert (got[got != sentinel] == 0.0).all()


def test_dsa_float32_self_match_signed_zero_twins():
    traces = float32_rows(10, 6, 33)
    traces[:, 2] = 0.0
    traces[7] = traces[2]
    traces[7, 2] = -0.0  # equal as values: cdist distance 0 from row 2
    traces[3, 4] = 0.0
    traces[8] = traces[3]
    traces[8, [2, 4]] = -0.0
    traces[4] = traces[0]
    traces[4, 2] = -0.0
    got = assert_float32_self_scored_is_exhaustive(traces, np.arange(10) % 2, 43)
    assert got[2] == got[7] == DSA_ZERO_DENOMINATOR_SENTINEL  # classes 0 and 1
    assert got[3] == got[8] == DSA_ZERO_DENOMINATOR_SENTINEL
    assert got[0] == got[4] == 0.0  # both class 0


def test_dsa_float32_rows_one_ulp_or_the_least_subnormal_apart_are_not_twins():
    traces = float32_rows(12, 7, 34)
    traces[:, 0] = 0.0
    traces[5] = traces[0]
    traces[5, 3] = np.nextafter(traces[0, 3], np.float32(np.inf))  # one float32 ulp
    traces[7] = traces[2]
    traces[7, 0] = np.float32(2.0 ** -149)  # the least float32 above 0.0
    traces[9] = traces[4]
    traces[9, 0] = -np.float32(2.0 ** -149)
    assert traces[7, 0] > 0 and traces[9, 0] < 0
    got = assert_float32_self_scored_is_exhaustive(traces, np.arange(12) % 4, 44)
    assert got.tolist() == [0.0] * 12  # each near pair is of two classes


def test_dsa_float32_many_identical_rows_skip_the_pair_test():
    # 900 equal rows of the desk CNN's 3,108 trace columns and 28 others:
    # one group of equal rows holding every class, found without a test of
    # its 404,550 pairs
    traces = float32_rows(928, 3108, 35)
    traces[:900] = traces[0]
    labels = np.arange(928) % 4
    index = dsa_index(traces, labels, 4, ("d1",))
    predicted = labels.copy()
    predicted[[3, 500, 899, 905, 927]] = [0, 1, 2, 3, 0]
    start = time.monotonic()
    got = dsa_from_traces(index, index.traces, predicted)
    assert time.monotonic() - start < 5.0
    check = np.array([0, 1, 3, 450, 500, 899, 900, 905, 927])
    want = exhaustive_cdist_dsa(index, index.traces[check], predicted[check])
    assert got[check].tobytes() == want.tobytes()
    own = np.flatnonzero(predicted == labels)
    assert (got[own[own < 900]] == DSA_ZERO_DENOMINATOR_SENTINEL).all()
    assert (got[own[own >= 900]] == 0.0).all()


def test_scoring_peak_memory_stays_within_twice_the_float32_trace_matrix(tmp_path):
    # about 400 Train* rows of the desk CNN's 3,108 trace columns: the
    # float32 pass is the one full-size array scoring holds, and every
    # metric widens a block at a time (a float64 pass alone would be 2x)
    cfg = with_overrides(parse_config(
        "synthetic.per_class_train = 86\nsynthetic.per_class_test = 10\n"
        "train.epochs = 2\n"), out=str(tmp_path))
    spine = Spine(cfg)
    model, train_star = spine.model, spine.sets.train_star
    columns = sum(cols.stop - cols.start for cols in trace_columns(model.architecture).values())
    matrix_bytes = len(train_star) * columns * 4
    assert 380 <= len(train_star) <= 420 and columns == 3108
    tracemalloc.start()
    try:
        score_metrics(METRICS, model, train_star, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * matrix_bytes, f"peak {peak} bytes, float32 traces {matrix_bytes}"


def test_fit_dsa_rejects_empty_class():
    m = tiny_cnn(classes=3)
    images = random_dataset(4, classes=3).images
    data = Dataset(images, np.array([0, 0, 1, 1]), class_count=3)
    with pytest.raises(ValueError, match="class 2"):
        fit_dsa(forward_pass(m, data.images), data)


# ---------------------------------------------------------------- Random


def test_random_score_is_permutation():
    scores = random_scores(100, seed=5)
    assert scores.dtype == np.float64
    values = sorted(scores.tolist())
    assert values == [float(v) for v in range(100)]
    again = random_scores(100, seed=5)
    assert scores.tolist() == again.tolist()


def test_random_seeds_nearly_uncorrelated():
    stats = pytest.importorskip("scipy.stats")
    a = random_scores(1000, seed=1)
    b = random_scores(1000, seed=2)
    tau, _ = stats.kendalltau(a, b)
    assert abs(tau) < 0.1


# ---------------------------------------------------------------- ordering


def test_order_inputs_descending():
    assert order_inputs(np.array([0.2, 0.9, 0.5])).tolist() == [1, 2, 0]


def test_order_inputs_ties_by_id():
    assert order_inputs(np.array([1.0, 1.0, 1.0])).tolist() == [0, 1, 2]


def test_order_inputs_reverse_is_ascending():
    rng = Pcg32(2)
    vals = rng.uniforms(50)
    descending = order_inputs(vals).tolist()
    ascending = sorted(range(len(vals)), key=lambda i: (vals[i], -i))
    assert descending == ascending[::-1]


def _reference_order(values) -> list:
    """The retraining order by definition: descending value, then ascending id."""
    return sorted(range(len(values)), key=lambda i: (-values[i], i))


def test_order_inputs_matches_reference_sort():
    rng = np.random.default_rng(7)
    mixed = np.array([0.0, -0.0, 1e12, 0.5, -0.0, 1e12, 0.0, -1.0, 1e12, 0.5])
    for values in (rng.standard_normal(500), rng.integers(0, 5, 500).astype(np.float64),
                   mixed):
        assert order_inputs(values).tolist() == _reference_order(values.tolist())
    # -0.0 ties with 0.0, so the signed zeros keep their id order
    assert order_inputs(mixed).tolist() == [2, 5, 8, 3, 9, 0, 1, 4, 6, 7]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_order_inputs_rejects_non_finite_by_row(bad):
    values = np.array([0.1, 0.2, 0.3, bad, 0.5, bad])
    with pytest.raises(ValueError, match=r"non-finite score .* for input 3$"):
        order_inputs(values)


# ---------------------------------------------------------------- timing


def test_timed_scoring_deterministic_scores():
    m = tiny_cnn(classes=3, seed=4)
    train = random_dataset(30, classes=3, seed=3)
    test = random_dataset(9, classes=3, seed=4)
    sets = build_augmented_sets(m, train, test, 0.5, 0.1, seed=2)
    cfg = RANDOM_SEED_0
    for metric in ("NC", "LSA", "DSA", "RANDOM"):
        s1, t1 = timed_scoring(metric, m, sets.train_star, cfg)
        s2, t2 = timed_scoring(metric, m, sets.train_star, cfg)
        assert s1.dtype == np.float64 and s1.shape == (len(sets.train_star),), metric
        assert np.array_equal(s1, s2), metric
        assert t1 >= 0 and t2 >= 0


def small_sets(seed=4):
    m = tiny_cnn(classes=3, seed=seed)
    train = random_dataset(30, classes=3, seed=3)
    test = random_dataset(9, classes=3, seed=4)
    return m, build_augmented_sets(m, train, test, 0.5, 0.1, seed=2)


def test_shared_pass_scores_equal_single_metric_calls():
    m, sets = small_sets()
    cfg = RANDOM_SEED_0
    shared = score_metrics(METRICS, m, sets.train_star, cfg)
    assert list(shared) == list(METRICS)
    for metric in METRICS:
        fresh, _ = timed_scoring(metric, m, sets.train_star, cfg)
        assert np.array_equal(shared[metric][0], fresh), metric


def test_shared_pass_runs_once_and_is_charged_to_each_trace_metric(monkeypatch):
    from guidedretrain import metrics

    m, sets = small_sets()
    passes = []

    def slow_pass(*args, **kwargs):
        passes.append(args)
        time.sleep(0.3)
        return forward_pass(*args, **kwargs)

    monkeypatch.setattr(metrics, "forward_pass", slow_pass)
    scored = score_metrics(("RANDOM", "NC", "LSA", "DSA"), m, sets.train_star, RANDOM_SEED_0)
    assert len(passes) == 1
    for metric in ("NC", "LSA", "DSA"):
        assert scored[metric][1] >= 0.3, metric
    assert scored["RANDOM"][1] < 0.3


def test_shared_pass_must_match_model_and_data():
    m, sets = small_sets()
    other = tiny_cnn(classes=3, seed=5)
    shared = SharedPass(other, sets.train_star)
    with pytest.raises(ValueError, match="another model"):
        timed_scoring("NC", m, sets.train_star, RANDOM_SEED_0, shared)


def test_random_scoring_is_fast():
    _, seconds = timed_scoring("RANDOM", tiny_cnn(), random_dataset(5000), RANDOM_SEED_0)
    assert seconds < 1.0


def test_format_duration():
    assert format_duration(0.0) == "00:00:00"
    assert format_duration(0.4) == "00:00:00"
    assert format_duration(95.0) == "00:01:35"
    assert format_duration(3 * 3600 + 17 * 60 + 38) == "03:17:38"
    with pytest.raises(ValueError):
        format_duration(-1.0)


def test_scores_csv_format(tmp_path):
    path = tmp_path / "scores.csv"
    scores_to_csv("LSA", np.array([1.23456789012345, 690.7755]), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "input_id,metric,value"
    assert lines[1] == "1.23456789".join(["0,LSA,", ""])
    assert len(lines) == 3


def test_distinct_values_and_inverse_match_np_unique():
    rng = np.random.default_rng(3)
    for values in (rng.integers(0, 50, 200), np.array([7]), np.array([4, 4, 0]),
                   np.array([], dtype=np.int64)):
        need, back = np.unique(values, return_inverse=True)
        assert np.array_equal(_present(values), need)
        assert np.array_equal(np.searchsorted(_present(values), values), back)
