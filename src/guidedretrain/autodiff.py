"""Dense float32 tensors with reverse-mode differentiation for small CNNs.

Values are numpy float32 arrays in row-major NHWC layout. A Graph is a fixed
chain of primitive layers (conv2d, maxpool2d, dense, relu) topped by a
softmax cross-entropy head computed inside forward_eval. Reductions (matrix
products, sums) accumulate in float64 and are stored back as float32, which
keeps results deterministic and close to the 64-bit finite-difference
oracle. The relu subgradient at exactly 0 is 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class GraphError(ValueError):
    """Graph construction or evaluation failed; message names the node."""


@dataclass(frozen=True)
class Conv2D:
    name: str
    filters: int
    kernel: int
    stride: int = 1
    padding: str = "same"


@dataclass(frozen=True)
class MaxPool2D:
    name: str
    size: int


@dataclass(frozen=True)
class Dense:
    name: str
    units: int


@dataclass(frozen=True)
class Relu:
    name: str


Layer = Conv2D | MaxPool2D | Dense | Relu


def _bits(a: np.ndarray) -> np.ndarray:
    """The bits of a float array as a same-size integer view.

    Multiplying the bits by a boolean mask selects `a` where the mask holds
    and +0 elsewhere, bit for bit as np.where(mask, a, 0) but without a
    branch per element.
    """
    return a.view(np.dtype(f"i{a.itemsize}"))


def _conv_out(extent: int, kernel: int, stride: int, padding: str) -> tuple[int, int, int]:
    """(output extent, pad before, pad after) along one spatial axis."""
    if padding == "same":
        out = -(-extent // stride)
        total = max((out - 1) * stride + kernel - extent, 0)
        return out, total // 2, total - total // 2
    if padding == "valid":
        if extent < kernel:
            raise GraphError(f"kernel {kernel} larger than input extent {extent}")
        return (extent - kernel) // stride + 1, 0, 0
    raise GraphError(f"unsupported padding {padding!r}")


# col2im scatters this many images per np.bincount call. A bigger block makes
# fewer calls but bigger per-call index and output buffers.
_SCATTER_IMAGES = 4

# One image's scatter index per conv geometry, built on the geometry's first
# backward pass. Graphs are rebuilt on every train or forward call, so a node
# cannot keep it. int32 keeps this long-lived cache small.
_SCATTER: dict[tuple, np.ndarray] = {}


def _scatter_index(padded_shape, col_shape, stride) -> np.ndarray:
    """Flat padded-input position of every column entry of one image, in the
    columns' order (oy, ox, ky, kx, c)."""
    key = (padded_shape, col_shape, stride)
    index = _SCATTER.get(key)
    if index is None:
        wp, c = padded_shape[1:]
        oy, ox, ky, kx, channel = np.ix_(*map(np.arange, col_shape))
        index = (((oy * stride + ky) * wp + ox * stride + kx) * c + channel).astype(np.int32).ravel()
        index.flags.writeable = False  # shared by every node of this geometry
        _SCATTER[key] = index
    return index


class _ConvNode:
    """Convolution as one GEMM over im2col columns.

    im2col copies one strided slice of the zero-padded input per kernel tap
    into columns (n, oh, ow, k, k, c). The bias is added to the output
    flattened to (n, oh*ow*f), as the bias tiled oh*ow times.

    col2im is one np.bincount per block of _SCATTER_IMAGES images. Its index
    repeats the cached one-image index (_scatter_index) once per image of the
    block. Walking the column gradients in array order gives every input
    pixel its addends in ascending output position.

    The bias gradient adds the rows of dy one after another (einsum). With
    one filter it stays sum, which then reduces pairwise, so einsum would
    change its bits.
    """

    def __init__(self, spec: Conv2D, in_shape: tuple[int, ...], dtype=np.float32):
        if len(in_shape) != 3:
            raise GraphError(f"conv2d node {spec.name!r} needs a (H, W, C) input, got {in_shape}")
        if spec.stride not in (1, 2):
            raise GraphError(f"conv2d node {spec.name!r}: stride must be 1 or 2")
        h, w, c = in_shape
        k, s = spec.kernel, spec.stride
        oh, pad_t, pad_b = _conv_out(h, k, s, spec.padding)
        ow, pad_l, pad_r = _conv_out(w, k, s, spec.padding)
        self.name = spec.name
        self.dtype = dtype
        self.in_shape = in_shape
        self.out_shape = (oh, ow, spec.filters)
        self.w_key, self.b_key = f"{spec.name}.w", f"{spec.name}.b"
        self.param_shapes = {self.w_key: (k, k, c, spec.filters), self.b_key: (spec.filters,)}
        self.padded_shape = (h + pad_t + pad_b, w + pad_l + pad_r, c)
        self.padded_size = int(np.prod(self.padded_shape))
        self.interior = (slice(None), slice(pad_t, pad_t + h), slice(pad_l, pad_l + w))
        self.col_shape = (oh, ow, k, k, c)
        self.stride = s
        # (ky, kx, rows, columns of the padded input that tap (ky, kx) reads)
        self.taps = [(ky, kx, slice(ky, ky + (oh - 1) * s + 1, s), slice(kx, kx + (ow - 1) * s + 1, s))
                     for ky in range(k) for kx in range(k)]

    def forward(self, x, params, keep):
        n = x.shape[0]
        if self.padded_shape == self.in_shape:
            xp = x
        else:
            xp = np.zeros((n,) + self.padded_shape, dtype=x.dtype)
            xp[self.interior] = x
        cols = np.empty((n,) + self.col_shape, dtype=x.dtype)
        for ky, kx, rows, columns in self.taps:
            cols[:, :, :, ky, kx] = xp[:, rows, columns]
        oh, ow, f = self.out_shape
        cols = cols.reshape(n, oh * ow, -1)
        y64 = (cols.astype(np.float64) @ params[self.w_key].reshape(-1, f).astype(np.float64)).reshape(n, -1)
        y64 += np.tile(params[self.b_key].astype(np.float64), oh * ow)
        return y64.astype(self.dtype).reshape(n, oh, ow, f), cols if keep else None

    def backward(self, dy, cols, params, need_dx):
        n = dy.shape[0]
        oh, ow, f = self.out_shape
        w = params[self.w_key]
        dy64 = dy.reshape(n, oh * ow, f).astype(np.float64)
        # BLAS rounds dw differently for different operand layouts. These are
        # the layouts np.tensordot formed from fancy-index gathered columns (a
        # C-ordered transpose for n > 1, a transposed view for n == 1), so the
        # weight gradients keep the bits of that formulation.
        cols_t = cols.reshape(n * oh * ow, -1).T
        dw = np.dot(cols_t.astype(np.float64, order="C" if n > 1 else "K"), dy64.reshape(n * oh * ow, f))
        db = np.einsum("ij->j", dy64.reshape(-1, f)) if f > 1 else dy64.sum(axis=(0, 1))
        grads = {self.w_key: dw.astype(self.dtype).reshape(w.shape), self.b_key: db.astype(self.dtype)}
        if not need_dx:
            return None, grads
        dcols = (dy64 @ w.reshape(-1, f).astype(np.float64).T).reshape(n, -1)
        one = _scatter_index(self.padded_shape, self.col_shape, self.stride)
        # image i of a block is offset by i padded images
        index = (np.arange(min(n, _SCATTER_IMAGES))[:, None] * self.padded_size + one).ravel()
        dx = np.empty((n,) + self.in_shape, dtype=self.dtype)
        for start in range(0, n, _SCATTER_IMAGES):
            m = min(_SCATTER_IMAGES, n - start)
            dxp = np.bincount(index[:m * one.size], weights=dcols[start:start + m].ravel(),
                              minlength=m * self.padded_size)
            dx[start:start + m] = dxp.reshape((m,) + self.padded_shape)[self.interior]
        return dx, grads


class _PoolNode:
    """s x s max-pool over one strided slice per window tap; odd edges are cropped.

    A later tap replaces the running maximum only when strictly greater, so
    the first maximal element of each window wins, as argmax would pick it.
    """

    def __init__(self, spec: MaxPool2D, in_shape: tuple[int, ...], dtype=np.float32):
        if len(in_shape) != 3:
            raise GraphError(f"maxpool2d node {spec.name!r} needs a (H, W, C) input, got {in_shape}")
        h, w, c = in_shape
        s = spec.size
        if s < 1 or (h // s) < 1 or (w // s) < 1:
            raise GraphError(f"maxpool2d node {spec.name!r}: pool size {s} too large for {in_shape}")
        self.name = spec.name
        self.dtype = dtype
        self.in_shape = in_shape
        self.out_shape = (h // s, w // s, c)
        self.param_shapes = {}
        self.idx_dtype = np.min_scalar_type(s * s - 1)
        # (rows, columns) of the input that window tap t = sy * s + sx reads
        self.taps = [(slice(sy, (h // s) * s, s), slice(sx, (w // s) * s, s))
                     for sy in range(s) for sx in range(s)]

    def forward(self, x, params, keep):
        rows, columns = self.taps[0]
        y = x[:, rows, columns].copy()
        y_bits = _bits(y)
        idx = np.zeros(y.shape, dtype=self.idx_dtype) if keep else None
        for t, (rows, columns) in enumerate(self.taps[1:], 1):
            tap = x[:, rows, columns]
            greater = tap > y
            y_bits ^= (y_bits ^ _bits(tap)) * greater
            if keep:
                idx ^= (idx ^ t) * greater
        return y, idx

    def backward(self, dy, idx, params, need_dx):
        dx = np.zeros((dy.shape[0],) + self.in_shape, dtype=self.dtype)
        for t, (rows, columns) in enumerate(self.taps):
            np.multiply(_bits(dy), idx == t, out=_bits(dx[:, rows, columns]))
        return dx, {}


class _DenseNode:
    def __init__(self, spec: Dense, in_shape: tuple[int, ...], dtype=np.float32):
        self.name = spec.name
        self.dtype = dtype
        self.in_shape = in_shape
        self.in_features = int(np.prod(in_shape))
        self.out_shape = (spec.units,)
        self.w_key, self.b_key = f"{spec.name}.w", f"{spec.name}.b"
        self.param_shapes = {self.w_key: (self.in_features, spec.units), self.b_key: (spec.units,)}

    def forward(self, x, params, keep):
        xf = x.reshape(x.shape[0], self.in_features).astype(np.float64)
        y = xf @ params[self.w_key].astype(np.float64) + params[self.b_key].astype(np.float64)
        return y.astype(self.dtype), xf if keep else None

    def backward(self, dy, xf, params, need_dx):
        dy64 = dy.astype(np.float64)
        grads = {self.w_key: (xf.T @ dy64).astype(self.dtype), self.b_key: dy64.sum(axis=0).astype(self.dtype)}
        if not need_dx:
            return None, grads
        dx = (dy64 @ params[self.w_key].astype(np.float64).T).astype(self.dtype)
        return dx.reshape((dy.shape[0],) + self.in_shape), grads


class _ReluNode:
    def __init__(self, spec: Relu, in_shape: tuple[int, ...], dtype=np.float32):
        self.name = spec.name
        self.dtype = dtype
        self.in_shape = in_shape
        self.out_shape = in_shape
        self.param_shapes = {}

    def forward(self, x, params, keep):
        return np.maximum(x, self.dtype(0)), x > 0 if keep else None

    def backward(self, dy, mask, params, need_dx):
        return (_bits(dy) * mask).view(self.dtype), {}


_NODES = {Conv2D: _ConvNode, MaxPool2D: _PoolNode, Dense: _DenseNode, Relu: _ReluNode}


class Graph:
    """Fixed chain of primitive ops over named parameter tensors.

    Construction checks the whole shape algebra once, so forward/backward
    never reshape-guess. `params` maps "<layer>.w" / "<layer>.b" to float32
    arrays; callers may rebind the attribute between steps but must not
    mutate arrays another evaluation is reading. dtype=float64 runs the same
    chain in full 64-bit storage (used when verifying gradients).
    `params=None` builds the shape algebra only; such a graph cannot run.
    """

    def __init__(self, input_shape, layers, params=None, dtype=np.float32):
        self.dtype = np.dtype(dtype).type
        self.input_shape = tuple(int(d) for d in input_shape)
        if len(self.input_shape) != 3:
            raise GraphError(f"input shape must be (H, W, C), got {input_shape}")
        self.nodes = []
        names = set()
        shape = self.input_shape
        for spec in layers:
            if spec.name in names:
                raise GraphError(f"duplicate layer name {spec.name!r}")
            names.add(spec.name)
            if type(spec) not in _NODES:
                raise GraphError(f"unknown layer kind {spec!r}")
            node = _NODES[type(spec)](spec, shape, self.dtype)
            shape = node.out_shape
            self.nodes.append(node)
        if not self.nodes or not isinstance(self.nodes[-1], _DenseNode):
            raise GraphError("graph must end in a dense logits layer")
        self.class_count = self.nodes[-1].out_shape[0]
        self.params = params
        if params is None:
            return
        for key, want in self.param_shapes().items():
            if key not in params:
                raise GraphError(f"missing parameter {key!r}")
            if params[key].shape != want:
                raise GraphError(f"parameter {key!r} has shape {params[key].shape}, expected {want}")

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        return {key: shape for node in self.nodes for key, shape in node.param_shapes.items()}


@dataclass
class ForwardState:
    graph: Graph
    batch: int
    labels: np.ndarray | None
    logits: np.ndarray
    loss: float | None
    activations: dict[str, np.ndarray]
    caches: dict[str, object] = field(repr=False, default_factory=dict)
    dlogits: np.ndarray | None = field(repr=False, default=None)


@dataclass
class GradientBundle:
    """Loss gradients for every parameter plus the network input."""

    params: dict[str, np.ndarray]
    input_grad: np.ndarray | None


def _check_params_finite(graph: Graph) -> None:
    if graph.params is None:
        raise GraphError("graph was built without parameters; it only describes shapes")
    for key, value in graph.params.items():
        if not np.all(np.isfinite(value)):
            raise GraphError(f"parameter {key!r} contains non-finite values")


def forward_eval(graph: Graph, x: np.ndarray, labels=None) -> ForwardState:
    """Run the graph on a batch (N, H, W, C) or a single input (H, W, C).

    With labels given, also computes the mean softmax cross-entropy loss and
    caches everything backward_grads needs; without labels no node builds a
    cache. All per-node activations are retained for trace extraction. A
    non-finite input raises GraphError naming its row.
    """
    x = np.asarray(x, dtype=graph.dtype)
    if x.shape == graph.input_shape:
        x = x[None]
    if x.shape[1:] != graph.input_shape:
        raise GraphError(
            f"input shape {x.shape[1:]} does not match graph input {graph.input_shape}"
        )
    _check_params_finite(graph)
    n = x.shape[0]
    finite = np.isfinite(x.reshape(n, -1)).all(axis=1)
    if not finite.all():
        raise GraphError(f"input row {int(finite.argmin())} contains non-finite values")
    keep = labels is not None
    activations: dict[str, np.ndarray] = {}
    caches: dict[str, object] = {}
    out = x
    for node in graph.nodes:
        out, cache = node.forward(out, graph.params, keep)
        activations[node.name] = out
        if keep:
            caches[node.name] = cache
    logits = out
    loss = None
    dlogits = None
    label_arr = None
    if labels is not None:
        label_arr = np.atleast_1d(np.asarray(labels, dtype=np.int64))
        if label_arr.shape != (n,):
            raise GraphError(f"labels shape {label_arr.shape} does not match batch {n}")
        if label_arr.min() < 0 or label_arr.max() >= graph.class_count:
            raise GraphError(f"label out of range for {graph.class_count} classes")
        z = logits.astype(np.float64)
        z -= z.max(axis=1, keepdims=True)
        ez = np.exp(z)
        se = ez.sum(axis=1, keepdims=True)
        logprob = z - np.log(se)
        loss = float(-logprob[np.arange(n), label_arr].mean())
        probs = ez / se
        probs[np.arange(n), label_arr] -= 1.0
        dlogits = (probs / n).astype(graph.dtype)
    return ForwardState(
        graph=graph,
        batch=n,
        labels=label_arr,
        logits=logits,
        loss=loss,
        activations=activations,
        caches=caches,
        dlogits=dlogits,
    )


def backward_grads(state: ForwardState, input_grad: bool = True) -> GradientBundle:
    """Exact reverse-mode gradients of the loss from a completed forward pass.

    With input_grad=False GradientBundle.input_grad is None and a first conv
    or dense layer skips its input gradient; parameter gradients are the same.
    """
    if not isinstance(state, ForwardState) or state.dlogits is None:
        raise GraphError("backward_grads requires a forward pass evaluated with labels")
    graph = state.graph
    grads: dict[str, np.ndarray] = {}
    dy = state.dlogits
    for node in reversed(graph.nodes):
        need_dx = input_grad or node is not graph.nodes[0]
        dy, node_grads = node.backward(dy, state.caches[node.name], graph.params, need_dx)
        grads.update(node_grads)
    return GradientBundle(params=grads, input_grad=dy if input_grad else None)


def sgd_step(params, grads: GradientBundle, lr: float, momentum: float, velocity=None):
    """One SGD-with-momentum update: v <- momentum*v + g; p <- p - lr*v.

    Returns (new params, new velocity); inputs are left untouched so callers
    can keep bit-exact snapshots of earlier states.
    """
    if lr <= 0:
        raise ValueError(f"lr must be positive, got {lr}")
    if not 0 <= momentum < 1:
        raise ValueError(f"momentum must be in [0, 1), got {momentum}")
    if set(grads.params) != set(params):
        raise ValueError("gradient keys do not match parameter keys")
    if velocity is None:
        velocity = {k: np.zeros_like(v) for k, v in params.items()}
    new_params = {}
    new_velocity = {}
    for key, p in params.items():
        g = grads.params[key]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape} for {key!r}")
        v = momentum * velocity[key] + g
        new_velocity[key] = v.astype(p.dtype, copy=False)
        new_params[key] = (p - p.dtype.type(lr) * v).astype(p.dtype, copy=False)
    return new_params, new_velocity
