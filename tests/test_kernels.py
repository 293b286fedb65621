"""Bitwise checks of the conv, max-pool and relu kernels against reference
implementations: an im2col by fancy-index gather, a col2im by `bincount`
and a max-pool by `argmax`.

Every comparison is on the raw bits (`.view(np.uint32)` / `.view(np.uint64)`),
so a reordered sum or a flipped sign of zero fails.
"""

import numpy as np
import pytest

from guidedretrain import autodiff
from guidedretrain.autodiff import (
    Conv2D,
    Dense,
    Graph,
    GraphError,
    MaxPool2D,
    Relu,
    _conv_out,
    backward_grads,
    forward_eval,
)
from guidedretrain.model import build_model, desk_architecture


def bits(a):
    a = np.ascontiguousarray(a)
    return a.view(np.dtype(f"u{a.itemsize}"))


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(bits(got), bits(want))


# ---------------------------------------------------------------- references


class ReferenceConv:
    """im2col by one fancy-index gather, col2im by `bincount`."""

    def __init__(self, spec, in_shape):
        h, w, c = in_shape
        k, s = spec.kernel, spec.stride
        oh, self.pad_t, self.pad_b = _conv_out(h, k, s, spec.padding)
        ow, self.pad_l, self.pad_r = _conv_out(w, k, s, spec.padding)
        self.in_shape = in_shape
        self.out_shape = (oh, ow, spec.filters)
        hp, wp = h + self.pad_t + self.pad_b, w + self.pad_l + self.pad_r
        self.padded_size = hp * wp * c
        ky, kx, kc = np.meshgrid(np.arange(k), np.arange(k), np.arange(c), indexing="ij")
        taps = ((ky * wp) + kx) * c + kc
        base = (np.arange(oh)[:, None] * s * wp + np.arange(ow)[None, :] * s) * c
        self.gather = (base.reshape(-1, 1) + taps.reshape(1, -1)).astype(np.int64)

    def forward(self, x, w, b):
        n = x.shape[0]
        xp = np.pad(x, ((0, 0), (self.pad_t, self.pad_b), (self.pad_l, self.pad_r), (0, 0)))
        cols = xp.reshape(n, self.padded_size)[:, self.gather]
        # With one filter numpy does not call GEMM: it picks a BLAS dot
        # routine by the columns' memory layout, and the gather's batched
        # layout rounds differently from the node's C-ordered columns.
        operand = cols if w.shape[-1] > 1 else np.ascontiguousarray(cols)
        y64 = operand.astype(np.float64) @ w.reshape(self.gather.shape[1], -1).astype(np.float64)
        y64 += b.astype(np.float64)
        oh, ow, f = self.out_shape
        return y64.astype(x.dtype).reshape(n, oh, ow, f), cols

    def backward(self, dy, cols, w):
        n = dy.shape[0]
        oh, ow, f = self.out_shape
        dy64 = dy.reshape(n, oh * ow, f).astype(np.float64)
        dw = np.tensordot(cols.astype(np.float64), dy64, axes=([0, 1], [0, 1]))
        db = dy64.sum(axis=(0, 1))
        dcols = dy64 @ w.reshape(-1, f).astype(np.float64).T
        flat_idx = (np.arange(n)[:, None, None] * self.padded_size + self.gather[None]).ravel()
        dxp = np.bincount(flat_idx, weights=dcols.ravel(), minlength=n * self.padded_size)
        h, wd, c = self.in_shape
        dxp = dxp.reshape(n, h + self.pad_t + self.pad_b, wd + self.pad_l + self.pad_r, c)
        dx = dxp[:, self.pad_t:self.pad_t + h, self.pad_l:self.pad_l + wd, :]
        return dx.astype(dy.dtype), dw.astype(dy.dtype).reshape(w.shape), db.astype(dy.dtype)


def reference_pool_forward(x, s):
    n, h, w, c = x.shape
    oh, ow = h // s, w // s
    win = x[:, :oh * s, :ow * s, :].reshape(n, oh, s, ow, s, c)
    win = win.transpose(0, 1, 3, 5, 2, 4).reshape(n, oh, ow, c, s * s)
    idx = win.argmax(axis=-1)
    return np.take_along_axis(win, idx[..., None], axis=-1)[..., 0], idx


def reference_pool_backward(dy, idx, s, in_shape):
    n, oh, ow, c = dy.shape
    dwin = np.zeros((n, oh, ow, c, s * s), dtype=dy.dtype)
    np.put_along_axis(dwin, idx[..., None], dy[..., None], axis=-1)
    dwin = dwin.reshape(n, oh, ow, c, s, s).transpose(0, 1, 4, 2, 5, 3)
    dx = np.zeros((n,) + in_shape, dtype=dy.dtype)
    dx[:, :oh * s, :ow * s, :] = dwin.reshape(n, oh * s, ow * s, c)
    return dx


# ---------------------------------------------------------------- helpers


def single_node_graph(spec, in_shape, dtype=np.float32, seed=0):
    """Graph of one spec node plus a dense head, with random parameters."""
    graph = Graph(in_shape, [spec, Dense("head", units=2)], dtype=dtype)
    rng = np.random.default_rng(seed)
    graph.params = {key: rng.standard_normal(shape).astype(dtype)
                    for key, shape in graph.param_shapes().items()}
    return graph, graph.nodes[0]


CONV_CASES = [
    # (spec, input (H, W, C))
    (Conv2D("c", filters=4, kernel=3, stride=1, padding="same"), (7, 9, 3)),
    (Conv2D("c", filters=5, kernel=3, stride=2, padding="valid"), (9, 7, 2)),
    (Conv2D("c", filters=3, kernel=3, stride=2, padding="same"), (7, 8, 1)),
    (Conv2D("c", filters=2, kernel=2, stride=1, padding="same"), (5, 6, 2)),
    (Conv2D("c", filters=8, kernel=3, stride=1, padding="same"), (16, 16, 1)),
    # one filter: the bias gradient's sum reduces pairwise, which einsum would not
    (Conv2D("c", filters=1, kernel=3, stride=1, padding="same"), (6, 5, 2)),
]


# ---------------------------------------------------------------- conv


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [1, 33])
@pytest.mark.parametrize("spec,in_shape", CONV_CASES)
def test_conv_matches_gather_and_bincount(spec, in_shape, batch, dtype):
    graph, node = single_node_graph(spec, in_shape, dtype, seed=batch)
    ref = ReferenceConv(spec, in_shape)
    rng = np.random.default_rng(7)
    # mixed magnitudes, so a reordered sum rounds differently
    x = (rng.standard_normal((batch,) + in_shape) * 10.0 ** rng.integers(-3, 4, in_shape)).astype(dtype)
    w, b = graph.params["c.w"], graph.params["c.b"]

    y, cols = node.forward(x, graph.params, True)
    y_ref, cols_ref = ref.forward(x, w, b)
    assert_same_bits(y, y_ref)
    assert_same_bits(cols, cols_ref)
    y_free, cache = node.forward(x, graph.params, False)
    assert cache is None
    assert_same_bits(y_free, y_ref)

    dy = (rng.standard_normal(y.shape) * 10.0 ** rng.integers(-3, 4, y.shape[1:])).astype(dtype)
    dx, grads = node.backward(dy, cols, graph.params, True)
    dx_ref, dw_ref, db_ref = ref.backward(dy, cols_ref, w)
    assert_same_bits(dx, dx_ref)
    assert_same_bits(grads["c.w"], dw_ref)
    assert_same_bits(grads["c.b"], db_ref)
    skipped, grads_only = node.backward(dy, cols, graph.params, False)
    assert skipped is None
    assert_same_bits(grads_only["c.w"], dw_ref)


def test_conv_scatter_index_is_shared_per_geometry(monkeypatch):
    """One lazily built col2im index per conv geometry, of fixed size.

    Batch 33 above leaves a remainder of the scatter block, so the conv
    tests cover a partial block as well as whole ones.
    """
    assert 33 % autodiff._SCATTER_IMAGES != 0 and 33 > autodiff._SCATTER_IMAGES
    monkeypatch.setattr(autodiff, "_SCATTER", {})
    rng = np.random.default_rng(4)
    indexes = []
    for batch in (3, 37):  # below the block, and above a multiple of it
        graph = build_model(desk_architecture(), seed=batch).graph()
        x = rng.random((batch, 16, 16, 1), dtype=np.float32)
        state = forward_eval(graph, x, rng.integers(0, 4, batch))
        if not indexes:
            assert autodiff._SCATTER == {}  # nothing is built before a backward pass
        backward_grads(state)
        indexes.append([autodiff._scatter_index(node.padded_shape, node.col_shape, node.stride)
                        for node in graph.nodes if hasattr(node, "col_shape")])
    assert len(autodiff._SCATTER) == 2  # conv1 and conv2
    assert all(a is b for a, b in zip(*indexes))
    # one image's (16*16*9*1 + 8*8*9*8) column entries x 4 bytes = 27 KiB
    assert sum(index.nbytes for index in autodiff._SCATTER.values()) <= 32 * 1024


# ---------------------------------------------------------------- max-pool


def tie_heavy(rng, shape, values, dtype=np.float32):
    """Inputs drawn from a few exact values, so most windows hold ties."""
    return np.asarray(values, dtype=dtype)[rng.integers(0, len(values), shape)]


POOL_CASES = [
    # (size, input (H, W, C), values or None for continuous data)
    (2, (7, 9, 3), None),
    (3, (8, 7, 2), None),
    (2, (7, 9, 3), [1.0, 2.0, 3.0]),
    (3, (10, 11, 2), [0.5, 2.0]),
    (2, (5, 7, 4), [-0.0, 0.0, -1.0]),
    (3, (7, 7, 2), [-0.0, 0.0]),
]


@pytest.mark.parametrize("batch", [1, 33])
@pytest.mark.parametrize("size,in_shape,values", POOL_CASES)
def test_pool_matches_argmax(size, in_shape, values, batch):
    graph, node = single_node_graph(MaxPool2D("p", size), in_shape)
    rng = np.random.default_rng(size * 100 + batch)
    shape = (batch,) + in_shape
    if values is None:
        x = rng.standard_normal(shape).astype(np.float32)
    else:
        x = tie_heavy(rng, shape, values)

    y, idx = node.forward(x, graph.params, True)
    y_ref, idx_ref = reference_pool_forward(x, size)
    assert_same_bits(y, y_ref)
    assert np.array_equal(idx, idx_ref)
    y_free, cache = node.forward(x, graph.params, False)
    assert cache is None
    assert_same_bits(y_free, y_ref)

    dy = tie_heavy(rng, y.shape, [-0.0, 0.0, -2.5, 1.5, 3.0])
    dx, grads = node.backward(dy, idx, graph.params, True)
    assert grads == {}
    assert_same_bits(dx, reference_pool_backward(dy, idx_ref, size, in_shape))


def test_pool_tie_cases_hold_ties():
    """The tie cases above really tie, and some ties mix +0 with -0."""
    rng = np.random.default_rng(3 * 100 + 33)
    x = tie_heavy(rng, (33, 7, 7, 2), [-0.0, 0.0])
    n, h, w, c = x.shape
    win = x[:, :6, :6].reshape(n, 2, 3, 2, 3, c).transpose(0, 1, 3, 5, 2, 4).reshape(-1, 9)
    signs = np.signbit(win)
    assert (signs.any(axis=1) & ~signs.all(axis=1)).sum() > 50
    y, idx = reference_pool_forward(x, 3)
    assert np.signbit(y).any() and not np.signbit(y).all()


# ---------------------------------------------------------------- relu


def test_relu_backward_is_where():
    graph, node = single_node_graph(Relu("r"), (4, 5, 3))
    rng = np.random.default_rng(5)
    x = tie_heavy(rng, (9, 4, 5, 3), [-0.0, 0.0, -1.0, 2.0])
    y, mask = node.forward(x, graph.params, True)
    assert_same_bits(y, np.maximum(x, np.float32(0)))
    dy = tie_heavy(rng, y.shape, [-0.0, 0.0, -2.5, 1.5])
    dx, _ = node.backward(dy, mask, graph.params, True)
    assert_same_bits(dx, np.where(x > 0, dy, np.float32(0)))


# ---------------------------------------------------------------- whole graph


def test_cache_free_forward_matches_training_forward():
    model = build_model(desk_architecture(), seed=4)
    graph = model.graph()
    rng = np.random.default_rng(9)
    x = rng.random((37, 16, 16, 1), dtype=np.float32)
    x[:5] = 0.0  # rows of exact zeros give zero ties in every pool window
    labels = rng.integers(0, 4, 37)
    trained = forward_eval(graph, x, labels)
    free = forward_eval(graph, x)
    assert free.caches == {} and free.dlogits is None
    assert set(trained.caches) == {node.name for node in graph.nodes}
    assert_same_bits(free.logits, trained.logits)
    assert list(free.activations) == list(trained.activations)
    for name, act in trained.activations.items():
        assert_same_bits(free.activations[name], act)
    with pytest.raises(GraphError):
        backward_grads(free)


def test_backward_without_input_grad_keeps_parameter_grads():
    model = build_model(desk_architecture(), seed=4)
    rng = np.random.default_rng(2)
    x = rng.random((11, 16, 16, 1), dtype=np.float32)
    state = forward_eval(model.graph(), x, rng.integers(0, 4, 11))
    full = backward_grads(state)
    lean = backward_grads(state, input_grad=False)
    assert full.input_grad.shape == x.shape and lean.input_grad is None
    assert list(lean.params) == list(full.params)
    for key, grad in full.params.items():
        assert_same_bits(lean.params[key], grad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("labelled", [False, True])
def test_non_finite_input_names_first_row(bad, labelled):
    graph = build_model(desk_architecture(), seed=1).graph()
    x = np.zeros((6, 16, 16, 1), dtype=np.float32)
    x[4, 3, 2, 0] = bad
    x[2, 15, 15, 0] = bad
    labels = np.zeros(6, dtype=np.int64) if labelled else None
    with pytest.raises(GraphError, match="input row 2 "):
        forward_eval(graph, x, labels)
    with pytest.raises(GraphError, match="input row 0 "):
        forward_eval(graph, x[2])
    # float64 values beyond float32 range become inf on the way in
    big = np.zeros((2, 16, 16, 1))
    big[1, 0, 0, 0] = 1e39
    with np.errstate(over="ignore"), pytest.raises(GraphError, match="input row 1 "):
        forward_eval(graph, big)
