"""Guidance metrics over Train*: NC, LSA, DSA and the Random baseline.

NC is the fraction of neurons whose per-input, per-layer min-max scaled
activation exceeds a threshold. LSA is the negative log of a diagonal
Gaussian kernel density (Scott bandwidths) of the input's trace under the
training traces of its predicted class. DSA is the distance to the nearest
same-predicted-class training trace divided by the distance from that trace
to the nearest trace of any other class. Random assigns a seeded permutation
rank. A metric's scores are one float64 array indexed by Train* row id;
the retraining order is that array sorted by descending score, ties broken
by ascending row id.

NC, LSA and DSA are functions of one ForwardPass over Train*: predict's
labels plus the float32 post-activation traces of every conv/dense layer.
score_metrics computes that pass once, inside the first scoring that needs
it, and lets every trace-based metric read it. Each metric widens to
float64 only the block it is computing on, at most _BLOCK_ROWS rows of a
wide matrix at a time. Widening float32 is exact and all arithmetic runs in
float64, so the scores have the bits of a float64 trace matrix, at half its
memory.

guidance_layers is the one reading of lsa.layer and dsa.layers: the
scoring fits LSA and DSA on the layers it names, and stages.py refuses a
name without neurons and writes the same names into their fingerprints.

LSA's kernel distances and DSA's exact rechecks come from this module's
cdist, an in-order sum of each pair's squared differences, and LSA's
log-density from _logsumexp. Both use numpy only and return the bits of
SciPy's `cdist` and `logsumexp` (1.17), which the tests keep as oracles.
This module writes no files: reports.py writes the scores_<metric>.csv
tables.

When Train* scores its float32 traces, a row predicted into its true class
is its own reference, at cdist distance 0, the least there is. Between
float32 rows that distance is 0 exactly when the rows are equal as values,
so its DSA is decided without a search (_self_match_scores): +0.0, or the
sentinel when a row of another class is equal to it. Only the other rows
search (_nearest). A float64 index scoring itself searches for every row,
since float64 rows about 1e-170 apart are at distance 0 as well.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .autodiff import Dense
from .model import Dataset, ForwardPass, ModelState, forward_pass, trace_columns
from .rng import Pcg32

if TYPE_CHECKING:  # config imports this module
    from .config import ExperimentConfig

METRICS = ("NC", "LSA", "DSA", "RANDOM")
TRACE_METRICS = ("NC", "LSA", "DSA")  # the metrics that read the forward pass

# finite stand-in for an undefined DSA ratio (zero denominator), keeps the
# ordering total
DSA_ZERO_DENOMINATOR_SENTINEL = 1e12

_LOG_2PI = float(np.log(2.0 * np.pi))
_DENSITY_FLOOR = 1e-300

# from this many pairs on, cdist loops over columns; below it, it
# accumulates along the rows of one (pairs, d) block (measured crossover,
# about 512-1024 pairs whatever d)
_COLUMN_LOOP_PAIRS = 1024

# rows of a trace matrix widened to float64 at a time, by every row-block
# loop over traces (_row_blocks)
_BLOCK_ROWS = 64


def _row_blocks(n: int):
    """Slices of at most _BLOCK_ROWS consecutive rows, covering rows 0..n-1."""
    return (slice(start, start + _BLOCK_ROWS) for start in range(0, n, _BLOCK_ROWS))


def cdist(XA, XB, metric: str = "euclidean") -> np.ndarray:
    """(len(XA), len(XB)) squared or plain Euclidean distances between rows.

    Each pair's squared differences are added one column at a time, in
    column order, with one rounding per add, so the result has the bits of
    SciPy's C loop; np.sum, einsum and GEMM sum in other orders.
    """
    if metric not in ("sqeuclidean", "euclidean"):
        raise ValueError(f"unsupported metric {metric!r}")
    XA = np.asarray(XA, dtype=np.float64)
    XB = np.asarray(XB, dtype=np.float64)
    if XA.ndim != 2 or XB.ndim != 2 or XA.shape[1] != XB.shape[1]:
        raise ValueError(f"XA {XA.shape} and XB {XB.shape} must be 2-D with equal columns")
    if len(XA) * len(XB) < _COLUMN_LOOP_PAIRS:
        sq = XA[:, None] - XB
        np.multiply(sq, sq, out=sq)
        out = np.add.accumulate(sq, axis=2)[:, :, -1]
    else:
        out = np.zeros((len(XA), len(XB)))
        diff = np.empty_like(out)
        for a, b in zip(XA.T.copy(), XB.T.copy()):
            np.subtract(a[:, None], b, out=diff)
            np.multiply(diff, diff, out=diff)
            out += diff
    return np.sqrt(out) if metric == "euclidean" else out


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a), axis=1)) of a 2-D float64 array, in SciPy 1.17's steps.

    The row maxima are taken out of the sum and counted (m), the rest is
    shifted by the maximum, exponentiated and summed; the result is
    log1p(s / m) + log(m) + max. Rows where that is not finite take the
    direct log(sum(exp(a))).
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max(axis=1, keepdims=True)
        at_max = a == a_max
        m = at_max.sum(axis=1, keepdims=True).astype(np.float64)
        shifted = np.where(at_max, -np.inf, a)
        shifted -= a_max
        # a zero sum stays 0 (m >= 1 unless the row's max is NaN, and then s is NaN)
        s = np.exp(shifted).sum(axis=1, keepdims=True) / m
        out = (np.log1p(s) + np.log(m) + a_max)[:, 0]
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = np.log(np.exp(a[bad]).sum(axis=1))
    return out


def active_fraction(scaled_layers, threshold: float) -> float:
    """Fraction of neurons with scaled activation strictly above threshold.

    `scaled_layers` is a sequence of 1-D arrays, one per layer, already
    scaled to [0, 1].
    """
    active = 0
    total = 0
    for vals in scaled_layers:
        vals = np.asarray(vals, dtype=np.float64)
        active += int((vals > threshold).sum())
        total += vals.size
    if total == 0:
        raise ValueError("no neurons selected")
    return active / total


def _scale_minmax(block: np.ndarray) -> np.ndarray:
    """Per-row min-max scaling; constant rows map to 0 (counted inactive)."""
    lo = block.min(axis=1, keepdims=True)
    hi = block.max(axis=1, keepdims=True)
    span = hi - lo
    out = block - lo  # a constant row is all +0 here and stays so
    np.divide(out, span, out=out, where=span > 0)
    return out


def nc_scores(fp: ForwardPass, threshold: float) -> np.ndarray:
    """Neuron coverage of each pass row over all conv/dense post-activation neurons."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    active = np.zeros(len(fp.labels), dtype=np.int64)
    for cols in trace_columns(fp.architecture).values():
        # scaling is per row, so a block of rows at a time gives the same
        # bits without a copy of the layer's whole column block
        for rows in _row_blocks(len(active)):
            block = fp.traces[rows, cols].astype(np.float64)
            active[rows] += (_scale_minmax(block) > threshold).sum(axis=1)
    return active / fp.traces.shape[1]


def _check_pass(fp: ForwardPass, train_star: Dataset) -> None:
    if len(fp.labels) != len(train_star):
        raise ValueError(f"forward pass has {len(fp.labels)} rows, Train* has {len(train_star)}")


def scott_bandwidths(samples: np.ndarray) -> np.ndarray:
    """Scott's rule per dimension: std * n^(-1/(d+4)), sample std (ddof=1)."""
    n, d = samples.shape
    sigma = samples.std(axis=0, ddof=1)
    h = sigma * n ** (-1.0 / (d + 4))
    # zero within-class spread would make the kernel degenerate
    return np.maximum(h, 1e-12)


@dataclass(frozen=True)
class LsaEstimator:
    layer: str
    retained: np.ndarray  # neuron indices kept by the variance filter
    class_traces: dict  # class -> (n_c, d) float64
    bandwidths: dict  # class -> (d,) float64


def default_lsa_layer(arch) -> str:
    """Last hidden dense layer; falls back to the last hidden neuron layer."""
    hidden = arch.neuron_layers()[:-1]
    dense_names = {l.name for l in arch.layers if isinstance(l, Dense)}
    dense_hidden = [name for name in hidden if name in dense_names]
    if dense_hidden:
        return dense_hidden[-1]
    if not hidden:
        raise ValueError("architecture has no hidden neuron layer")
    return hidden[-1]


def guidance_layers(cfg: ExperimentConfig, arch) -> dict:
    """{config key: layer names} the SA metrics read on `arch`: lsa.layer's,
    else default_lsa_layer, and dsa.layers' split at its commas, in
    architecture order, else every neuron layer. A name `arch` lacks goes
    last, as spelled; prepare_data refuses it when its metric runs."""
    known = arch.neuron_layers()
    names = {p.strip() for p in cfg.dsa_layers.split(",")} - {""}
    dsa = tuple(n for n in known if n in names) + tuple(sorted(names - set(known)))
    return {"lsa.layer": (cfg.lsa_layer or default_lsa_layer(arch),),
            "dsa.layers": dsa or known}


def fit_lsa(fp: ForwardPass, train_star: Dataset, layer: str | None = None,
            variance_threshold: float = 1e-5) -> LsaEstimator:
    """Per-class diagonal Gaussian KDE over the selected layer's traces.

    `fp` is the forward pass over train_star. Classes group by true label;
    neurons whose variance across the whole train_star falls below the
    threshold are dropped.
    """
    _check_pass(fp, train_star)
    if layer is None:
        layer = default_lsa_layer(fp.architecture)
    traces = fp.block([layer]).astype(np.float64)
    variances = traces.var(axis=0)
    retained = np.flatnonzero(variances >= variance_threshold)
    if retained.size == 0:
        raise ValueError(f"variance filter {variance_threshold} removed every neuron of {layer!r}")
    traces = traces[:, retained]
    class_traces = {}
    bandwidths = {}
    for cls in range(train_star.class_count):
        rows = traces[train_star.labels == cls]
        if len(rows) < 2:
            raise ValueError(f"class {cls} has {len(rows)} inputs; LSA needs at least 2")
        class_traces[cls] = rows
        bandwidths[cls] = scott_bandwidths(rows)
    return LsaEstimator(layer=layer, retained=retained, class_traces=class_traces,
                        bandwidths=bandwidths)


def _present(values: np.ndarray) -> np.ndarray:
    """Ascending distinct values of a non-negative int array: np.unique's
    result, without the numpy.ma import that np.unique makes on first use."""
    return np.flatnonzero(np.bincount(values))


def _lsa_from_traces(est: LsaEstimator, traces: np.ndarray, classes: np.ndarray) -> np.ndarray:
    out = np.empty(len(traces), dtype=np.float64)
    for cls in _present(classes):
        if cls not in est.class_traces:
            raise KeyError(f"predicted class {cls} absent from the estimator")
        mask = classes == cls
        refs = est.class_traces[cls]
        h = est.bandwidths[cls]
        d = refs.shape[1]
        log_norm = -np.log(h).sum() - 0.5 * d * _LOG_2PI
        d2 = cdist(traces[mask] / h, refs / h, "sqeuclidean")
        log_kernels = -0.5 * d2 + log_norm
        log_density = _logsumexp(log_kernels) - np.log(len(refs))
        with np.errstate(under="ignore"):
            density = np.exp(log_density)
        out[mask] = -np.log(density + _DENSITY_FLOOR)
    return out


def lsa_scores(est: LsaEstimator, fp: ForwardPass) -> np.ndarray:
    traces = fp.block([est.layer])[:, est.retained].astype(np.float64)
    return _lsa_from_traces(est, traces, fp.labels)


def lsa_from_trace(est: LsaEstimator, trace: np.ndarray, predicted_class: int) -> float:
    """-log mean Gaussian-kernel density of one (already filtered) trace."""
    if predicted_class not in est.class_traces:
        raise KeyError(f"predicted class {predicted_class} absent from the estimator")
    refs = est.class_traces[predicted_class]
    h = est.bandwidths[predicted_class]
    d = refs.shape[1]
    norm = np.exp(-np.log(h).sum() - 0.5 * d * _LOG_2PI)
    total = 0.0
    for row in refs:
        u = (np.asarray(trace, dtype=np.float64) - row) / h
        total += np.exp(-0.5 * float(u @ u))
    density = norm * total / len(refs)
    return float(-np.log(density + _DENSITY_FLOOR))


@dataclass(frozen=True)
class DsaIndex:
    """Reference traces grouped by true class: class c is rows class_rows[c].

    `traces` keeps the dtype it was built from: float32 from a ForwardPass,
    widened to float64 block by block wherever DSA computes on it.
    """

    layers: tuple[str, ...]
    traces: np.ndarray  # (n, d) float32 or float64
    class_rows: dict  # class -> ascending int64 row indices into traces
    sq_norms: np.ndarray  # (n,) squared row norms of traces
    labels: np.ndarray  # (n,) true class of each row

    @property
    def dim(self) -> int:
        return self.traces.shape[1]

    @property
    def class_traces(self) -> dict:
        """class -> (n_c, d) float64 copy of that class's reference rows."""
        return {cls: self.traces[rows].astype(np.float64) for cls, rows in self.class_rows.items()}


def _squared_norms(traces: np.ndarray) -> np.ndarray:
    """Float64 squared norm of each trace row; a non-finite row is rejected
    by index. einsum widens float32 rows through its own small buffer."""
    sq = np.einsum("ij,ij->i", traces, traces, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(sq))
    if bad.size:
        raise ValueError(f"DSA trace row {bad[0]} has a non-finite value or squared norm")
    return sq


def dsa_index(traces: np.ndarray, labels: np.ndarray, class_count: int, layers) -> DsaIndex:
    """Index over reference traces (n, d), grouped by their true labels.

    The index keeps `traces` as given, without a copy or a change of dtype.
    """
    traces = np.asarray(traces)
    labels = np.asarray(labels)
    sq = _squared_norms(traces)
    class_rows = {}
    for cls in range(class_count):
        rows = np.flatnonzero(labels == cls)
        if len(rows) == 0:
            raise ValueError(f"class {cls} has no inputs")
        class_rows[cls] = rows
    if len(class_rows) < 2:
        raise ValueError("DSA needs at least 2 classes")
    return DsaIndex(layers=tuple(layers), traces=traces, class_rows=class_rows, sq_norms=sq,
                    labels=labels)


def fit_dsa(fp: ForwardPass, train_star: Dataset, layers=None) -> DsaIndex:
    """Training traces grouped by true class over the selected layers.

    `fp` is the forward pass over train_star; with every layer selected (the
    default) the index reads its trace matrix without a copy.
    """
    _check_pass(fp, train_star)
    selected = tuple(layers) if layers is not None else fp.architecture.neuron_layers()
    return dsa_index(fp.block(selected), train_star.labels, train_star.class_count, selected)


def _nearest(queries: np.ndarray, q_sq: np.ndarray, index: DsaIndex, blocks):
    """(index row, exact distance) of each float64 query row's nearest reference.

    The references are the index rows of `blocks`, a list of row arrays
    taken in order; ties go to the first of them in that order, as in an
    exhaustive argmin over the exact distances. The exact distance is
    cdist's: the square root of the in-order sum of squared differences.
    The references are gathered and widened to float64 in chunks of at most
    _BLOCK_ROWS rows, in `blocks` order. One GEMM per chunk gives
    g = |q|^2 + |r|^2 - 2 q.r, which differs from the square of the exact
    distance by at most E = 2 (d + 6) 2^-53 (|q| + |r|)^2: that covers the
    rounding of the GEMM and norms in any summation order, so under any
    chunking, and the rounding of the in-order sum, with a factor 2 to
    spare. So every row j with g_j - E_j <= min_k (g_k + E_k) may be the
    nearest, no other row can, and one cdist call per query decides among
    exactly those.
    """
    slack = 2.0 * (index.dim + 6) * 2.0 ** -53
    q_norm = np.sqrt(q_sq)[:, None]
    lows = []
    ceiling = np.full(len(queries), np.inf)
    for block in blocks:
        for part in _row_blocks(len(block)):
            rows = block[part]
            r_sq = index.sq_norms[rows]
            refs = index.traces[rows].astype(np.float64)
            g = q_sq[:, None] + r_sq - 2.0 * (queries @ refs.T)
            e = slack * (q_norm + np.sqrt(r_sq)) ** 2
            lows.append(g - e)
            np.minimum(ceiling, (g + e).min(axis=1), out=ceiling)
    # written as "not above" so a NaN from overflow keeps the row listed
    shortlist = ~(np.concatenate(lows, axis=1) > ceiling[:, None])
    order = np.concatenate(blocks)
    best = np.empty(len(queries), dtype=np.int64)
    dist = np.empty(len(queries), dtype=np.float64)
    for i, keep in enumerate(shortlist):
        rows = order[keep]
        dists = cdist(queries[i:i + 1], index.traces[rows], "euclidean")[0]
        k = int(dists.argmin())
        best[i], dist[i] = rows[k], dists[k]
    return best, dist


def _nearest_rows(traces: np.ndarray, rows: np.ndarray, sq: np.ndarray, index: DsaIndex,
                  blocks):
    """_nearest of the query rows traces[rows], with squared norms sq[rows];
    the queries are gathered and widened to float64 _BLOCK_ROWS at a time."""
    best = np.empty(len(rows), dtype=np.int64)
    dist = np.empty(len(rows), dtype=np.float64)
    for part in _row_blocks(len(rows)):
        picked = rows[part]
        best[part], dist[part] = _nearest(traces[picked].astype(np.float64), sq[picked],
                                          index, blocks)
    return best, dist


def _equal_row_groups(traces: np.ndarray):
    """(rows, group): the rows equal as values to another row, in every
    column (-0.0 == 0.0), sorted by group id; rows are equal exactly when
    they share a group.

    Columns are read one at a time, last first, and only at the rows still in
    question. All rows start as one group. A column sorts each group by value
    and splits it where neighbouring values differ; singletons drop out.
    When the last column is the output layer's, as with every layer
    selected, few rows are left after it.
    """
    rows = np.arange(len(traces))
    group = np.zeros(len(rows), dtype=np.int64)
    for col in range(traces.shape[1] - 1, -1, -1):
        if len(rows) == 0:
            break
        values = traces[rows, col]
        order = np.lexsort((values, group))
        rows, group, values = rows[order], group[order], values[order]
        split = np.concatenate(([True], (group[1:] != group[:-1]) | (values[1:] != values[:-1])))
        group = np.cumsum(split) - 1
        keep = np.bincount(group)[group] > 1
        rows, group = rows[keep], group[keep]
    return rows, group


def _self_match_scores(index: DsaIndex, rows: np.ndarray) -> np.ndarray:
    """DSA of rows of a float32 index, each scored under its own true class,
    without a search.

    Two float32 values that differ have a float64 squared difference of at
    least 2^-298, so a cdist distance between float32 rows is 0 exactly
    when the rows are equal. A row is at distance 0 from itself, the least
    there is, so its nearest same-class reference a is equal to it, and its
    DSA is 0 / dist(a, nearest other-class row): +0.0, or the sentinel when
    a row of another class is equal to a, that is, when the row's group of
    equal rows holds more than one true label.
    """
    equal, group = _equal_row_groups(index.traces)
    labels = index.labels[equal]
    starts = np.flatnonzero(np.diff(group, prepend=-1))
    mixed = np.minimum.reduceat(labels, starts) != np.maximum.reduceat(labels, starts)
    clash = np.zeros(len(index.labels), dtype=bool)
    clash[equal] = np.repeat(mixed, np.diff(starts, append=len(equal)))
    return np.where(clash[rows], DSA_ZERO_DENOMINATOR_SENTINEL, 0.0)


def dsa_from_traces(index: DsaIndex, traces: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """DSA of each trace row (n, d) given its predicted class.

    When `traces` is index.traces (Train* scoring itself) and float32, as
    every forward pass's is, a row predicted into its true class is scored
    by _self_match_scores. Every other row searches with _nearest, a block
    of rows at a time.
    """
    if traces.shape[1] != index.dim:
        raise ValueError(f"traces have {traces.shape[1]} columns, the index {index.dim}")
    own = np.zeros(len(traces), dtype=bool)
    if traces is index.traces:
        sq = index.sq_norms
        if traces.dtype == np.float32:
            own = index.labels == classes
    else:
        sq = _squared_norms(traces)
    out = np.empty(len(traces), dtype=np.float64)
    if own.any():
        out[own] = _self_match_scores(index, np.flatnonzero(own))
    for cls in _present(classes[~own]):
        cls = int(cls)
        if cls not in index.class_rows:
            raise KeyError(f"predicted class {cls} absent from the index")
        searched = np.flatnonzero((classes == cls) & ~own)
        a_rows, dist_a = _nearest_rows(traces, searched, sq, index, [index.class_rows[cls]])
        # nearest other-class distance, once per distinct nearest reference
        need = _present(a_rows)
        back = np.searchsorted(need, a_rows)
        others = [rows for c, rows in index.class_rows.items() if c != cls]
        _, dist_b = _nearest_rows(index.traces, need, index.sq_norms, index, others)
        dist_b = dist_b[back]
        safe = np.where(dist_b > 0, dist_b, 1.0)
        out[searched] = np.where(dist_b > 0, dist_a / safe, DSA_ZERO_DENOMINATOR_SENTINEL)
    return out


def dsa_scores(index: DsaIndex, fp: ForwardPass) -> np.ndarray:
    """DSA of every row of a forward pass; each row searches the index.

    Exact: each nearest-trace search shortlists by GEMM distances and
    decides by the in-order sum of squared differences (cdist, see
    _nearest), so the scores equal an exhaustive search over those exact
    distances bit for bit. Train* scores itself faster through
    dsa_from_traces(index, index.traces, labels), with the same bits.
    """
    return dsa_from_traces(index, fp.block(index.layers), fp.labels)


def random_scores(n: int, seed: int) -> np.ndarray:
    """Permutation ranks n-1 .. 0 from PCG32(seed) as float64; ordering by
    value is a uniform shuffle."""
    values = np.empty(n, dtype=np.float64)
    values[Pcg32(seed).permutation(n)] = np.arange(n - 1, -1, -1)
    return values


def order_inputs(values) -> np.ndarray:
    """Row ids sorted by descending score; ties (-0.0 equals 0.0) break by
    ascending id."""
    values = np.asarray(values, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"non-finite score {values[bad[0]]} for input {bad[0]}")
    return np.argsort(-values, kind="stable")


class SharedPass:
    """The forward pass of one model over Train*, run when a metric first
    needs it and read by every trace-based metric after that."""

    def __init__(self, model: ModelState, train_star: Dataset):
        self.model = model
        self.train_star = train_star
        self.seconds = 0.0  # wall time of the pass, 0 until it has run
        self._pass = None

    def get(self) -> ForwardPass:
        if self._pass is None:
            t0 = time.monotonic()
            self._pass = forward_pass(self.model, self.train_star.images)
            self.seconds = time.monotonic() - t0
        return self._pass


def _trace_metric_values(metric: str, fp: ForwardPass, train_star: Dataset,
                         cfg: ExperimentConfig) -> np.ndarray:
    if metric == "NC":
        return nc_scores(fp, cfg.nc_threshold)
    layers = guidance_layers(cfg, fp.architecture)
    if metric == "LSA":
        est = fit_lsa(fp, train_star, layer=layers["lsa.layer"][0],
                      variance_threshold=cfg.lsa_variance_threshold)
        return lsa_scores(est, fp)
    if metric == "DSA":
        # Train* scores itself: the index's own block, so no row is copied
        # and the rows that are their own reference skip the search
        index = fit_dsa(fp, train_star, layers=layers["dsa.layers"])
        return dsa_from_traces(index, index.traces, fp.labels)
    raise ValueError(f"unknown metric {metric!r}")


def timed_scoring(metric: str, model: ModelState, train_star: Dataset,
                  cfg: ExperimentConfig, shared: SharedPass | None = None):
    """(values, seconds) for one metric: values is the float64 score of
    each train_star row, under cfg's nc.*, lsa.*, dsa.* and
    seed.random_metric settings.

    NC, LSA and DSA read `shared`, the forward pass of `model` over
    train_star (a pass of their own when None). Their seconds are the whole
    pass plus their own math, whichever metric ran the pass, so each still
    reads what the metric costs on its own. RANDOM is charged only its own
    work.
    """
    t0 = time.monotonic()
    if metric == "RANDOM":
        return random_scores(len(train_star), cfg.seed_random_metric), time.monotonic() - t0
    if metric not in TRACE_METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    if shared is None:
        shared = SharedPass(model, train_star)
    elif shared.model is not model or shared.train_star is not train_star:
        raise ValueError("the shared pass belongs to another model or dataset")
    pass_before = shared.seconds
    values = _trace_metric_values(metric, shared.get(), train_star, cfg)
    own = time.monotonic() - t0 - (shared.seconds - pass_before)
    return values, own + shared.seconds


def score_metrics(metrics, model: ModelState, train_star: Dataset,
                  cfg: ExperimentConfig) -> dict:
    """{metric: (values, seconds)}; the trace-based metrics share one
    forward pass, which is freed when scoring ends."""
    shared = SharedPass(model, train_star)
    return {metric: timed_scoring(metric, model, train_star, cfg, shared) for metric in metrics}
