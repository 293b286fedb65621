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


class _ConvNode:
    kind = "conv2d"

    def __init__(self, spec: Conv2D, in_shape: tuple[int, ...], dtype=np.float32):
        if len(in_shape) != 3:
            raise GraphError(f"conv2d node {spec.name!r} needs a (H, W, C) input, got {in_shape}")
        if spec.stride not in (1, 2):
            raise GraphError(f"conv2d node {spec.name!r}: stride must be 1 or 2")
        h, w, c = in_shape
        k = spec.kernel
        oh, self.pad_t, self.pad_b = _conv_out(h, k, spec.stride, spec.padding)
        ow, self.pad_l, self.pad_r = _conv_out(w, k, spec.stride, spec.padding)
        self.name = spec.name
        self.dtype = dtype
        self.stride = spec.stride
        self.kernel = k
        self.in_shape = in_shape
        self.out_shape = (oh, ow, spec.filters)
        self.w_shape = (k, k, c, spec.filters)
        self.b_shape = (spec.filters,)
        hp = h + self.pad_t + self.pad_b
        wp = w + self.pad_l + self.pad_r
        self.padded_size = hp * wp * c
        # gather index (out positions, k*k*c) into the padded, flattened input
        oy = np.arange(oh) * spec.stride
        ox = np.arange(ow) * spec.stride
        ky, kx, kc = np.meshgrid(np.arange(k), np.arange(k), np.arange(c), indexing="ij")
        taps = ((ky * wp) + kx) * c + kc  # offsets of one window, (k, k, c)
        base = (oy[:, None] * wp + ox[None, :]) * c  # (oh, ow)
        self.gather = (base.reshape(-1, 1) + taps.reshape(1, -1)).astype(np.int64)

    def _pad(self, x: np.ndarray) -> np.ndarray:
        if self.pad_t or self.pad_b or self.pad_l or self.pad_r:
            return np.pad(x, ((0, 0), (self.pad_t, self.pad_b), (self.pad_l, self.pad_r), (0, 0)))
        return x

    def forward(self, x, w, b):
        n = x.shape[0]
        cols = self._pad(x).reshape(n, self.padded_size)[:, self.gather]
        kk = self.gather.shape[1]
        y64 = cols.astype(np.float64) @ w.reshape(kk, -1).astype(np.float64)
        y64 += b.astype(np.float64)
        oh, ow, f = self.out_shape
        return y64.astype(self.dtype).reshape(n, oh, ow, f), cols

    def backward(self, dy, cols, w):
        n = dy.shape[0]
        oh, ow, f = self.out_shape
        kk = self.gather.shape[1]
        dy64 = dy.reshape(n, oh * ow, f).astype(np.float64)
        dw = np.tensordot(cols.astype(np.float64), dy64, axes=([0, 1], [0, 1]))
        db = dy64.sum(axis=(0, 1))
        dcols = dy64 @ w.reshape(kk, f).astype(np.float64).T
        flat_idx = (np.arange(n)[:, None, None] * self.padded_size + self.gather[None]).ravel()
        dxp = np.bincount(flat_idx, weights=dcols.ravel(), minlength=n * self.padded_size)
        h, wd, c = self.in_shape
        hp = h + self.pad_t + self.pad_b
        wp = wd + self.pad_l + self.pad_r
        dxp = dxp.reshape(n, hp, wp, c)
        dx = dxp[:, self.pad_t:self.pad_t + h, self.pad_l:self.pad_l + wd, :]
        return (
            dx.astype(self.dtype),
            dw.astype(self.dtype).reshape(self.w_shape),
            db.astype(self.dtype),
        )


class _PoolNode:
    kind = "maxpool2d"

    def __init__(self, spec: MaxPool2D, in_shape: tuple[int, ...], dtype=np.float32):
        if len(in_shape) != 3:
            raise GraphError(f"maxpool2d node {spec.name!r} needs a (H, W, C) input, got {in_shape}")
        h, w, c = in_shape
        s = spec.size
        if s < 1 or (h // s) < 1 or (w // s) < 1:
            raise GraphError(f"maxpool2d node {spec.name!r}: pool size {s} too large for {in_shape}")
        self.name = spec.name
        self.dtype = dtype
        self.size = s
        self.in_shape = in_shape
        self.out_shape = (h // s, w // s, c)

    def forward(self, x):
        n = x.shape[0]
        h, w, c = self.in_shape
        oh, ow, _ = self.out_shape
        s = self.size
        win = x[:, :oh * s, :ow * s, :].reshape(n, oh, s, ow, s, c)
        win = win.transpose(0, 1, 3, 5, 2, 4).reshape(n, oh, ow, c, s * s)
        idx = win.argmax(axis=-1)
        y = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
        return y, idx

    def backward(self, dy, idx):
        n = dy.shape[0]
        h, w, c = self.in_shape
        oh, ow, _ = self.out_shape
        s = self.size
        dwin = np.zeros((n, oh, ow, c, s * s), dtype=self.dtype)
        np.put_along_axis(dwin, idx[..., None], dy[..., None], axis=-1)
        dwin = dwin.reshape(n, oh, ow, c, s, s).transpose(0, 1, 4, 2, 5, 3)
        dx = np.zeros((n, h, w, c), dtype=self.dtype)
        dx[:, :oh * s, :ow * s, :] = dwin.reshape(n, oh * s, ow * s, c)
        return dx


class _DenseNode:
    kind = "dense"

    def __init__(self, spec: Dense, in_shape: tuple[int, ...], dtype=np.float32):
        self.name = spec.name
        self.dtype = dtype
        self.in_shape = in_shape
        self.in_features = int(np.prod(in_shape))
        self.out_shape = (spec.units,)
        self.w_shape = (self.in_features, spec.units)
        self.b_shape = (spec.units,)

    def forward(self, x, w, b):
        n = x.shape[0]
        xf = x.reshape(n, self.in_features).astype(np.float64)
        y = xf @ w.astype(np.float64) + b.astype(np.float64)
        return y.astype(self.dtype), xf

    def backward(self, dy, xf, w):
        dy64 = dy.astype(np.float64)
        dw = xf.T @ dy64
        db = dy64.sum(axis=0)
        dx = (dy64 @ w.astype(np.float64).T).astype(self.dtype)
        return dx.reshape((dy.shape[0],) + self.in_shape), dw.astype(self.dtype), db.astype(self.dtype)


class _ReluNode:
    kind = "relu"

    def __init__(self, spec: Relu, in_shape: tuple[int, ...], dtype=np.float32):
        self.name = spec.name
        self.dtype = dtype
        self.in_shape = in_shape
        self.out_shape = in_shape

    def forward(self, x):
        return np.maximum(x, self.dtype(0)), x > 0

    def backward(self, dy, mask):
        return np.where(mask, dy, self.dtype(0))


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
            if isinstance(spec, Conv2D):
                node = _ConvNode(spec, shape, self.dtype)
            elif isinstance(spec, MaxPool2D):
                node = _PoolNode(spec, shape, self.dtype)
            elif isinstance(spec, Dense):
                node = _DenseNode(spec, shape, self.dtype)
            elif isinstance(spec, Relu):
                node = _ReluNode(spec, shape, self.dtype)
            else:
                raise GraphError(f"unknown layer kind {spec!r}")
            shape = node.out_shape
            self.nodes.append(node)
        if not self.nodes or self.nodes[-1].kind != "dense":
            raise GraphError("graph must end in a dense logits layer")
        self.class_count = self.nodes[-1].out_shape[0]
        self.params = params
        if params is None:
            return
        for node in self.nodes:
            if node.kind in ("conv2d", "dense"):
                for suffix, want in (("w", node.w_shape), ("b", node.b_shape)):
                    key = f"{node.name}.{suffix}"
                    if key not in params:
                        raise GraphError(f"missing parameter {key!r}")
                    if params[key].shape != want:
                        raise GraphError(
                            f"parameter {key!r} has shape {params[key].shape}, expected {want}"
                        )

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        shapes: dict[str, tuple[int, ...]] = {}
        for node in self.nodes:
            if node.kind in ("conv2d", "dense"):
                shapes[f"{node.name}.w"] = node.w_shape
                shapes[f"{node.name}.b"] = node.b_shape
        return shapes


@dataclass
class ForwardState:
    graph: Graph
    batch: int
    labels: np.ndarray | None
    logits: np.ndarray
    loss: float | None
    activations: dict[str, np.ndarray]
    caches: dict[str, object] = field(repr=False, default_factory=dict)
    input: np.ndarray | None = field(repr=False, default=None)
    dlogits: np.ndarray | None = field(repr=False, default=None)


@dataclass
class GradientBundle:
    """Loss gradients for every parameter plus the network input."""

    params: dict[str, np.ndarray]
    input_grad: np.ndarray


def _check_params_finite(graph: Graph) -> None:
    if graph.params is None:
        raise GraphError("graph was built without parameters; it only describes shapes")
    for key, value in graph.params.items():
        if not np.all(np.isfinite(value)):
            raise GraphError(f"parameter {key!r} contains non-finite values")


def forward_eval(graph: Graph, x: np.ndarray, labels=None) -> ForwardState:
    """Run the graph on a batch (N, H, W, C) or a single input (H, W, C).

    With labels given, also computes the mean softmax cross-entropy loss and
    caches everything backward_grads needs. All per-node activations are
    retained for trace extraction.
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
    activations: dict[str, np.ndarray] = {}
    caches: dict[str, object] = {}
    out = x
    for node in graph.nodes:
        if node.kind == "conv2d":
            out, cache = node.forward(out, graph.params[f"{node.name}.w"], graph.params[f"{node.name}.b"])
        elif node.kind == "dense":
            out, cache = node.forward(out, graph.params[f"{node.name}.w"], graph.params[f"{node.name}.b"])
        elif node.kind == "maxpool2d":
            out, cache = node.forward(out)
        else:
            out, cache = node.forward(out)
        activations[node.name] = out
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
        input=x,
        dlogits=dlogits,
    )


def backward_grads(state: ForwardState) -> GradientBundle:
    """Exact reverse-mode gradients of the loss from a completed forward pass."""
    if not isinstance(state, ForwardState) or state.dlogits is None:
        raise GraphError("backward_grads requires a forward pass evaluated with labels")
    graph = state.graph
    grads: dict[str, np.ndarray] = {}
    dy = state.dlogits
    for node in reversed(graph.nodes):
        cache = state.caches[node.name]
        if node.kind == "conv2d":
            dy, dw, db = node.backward(dy, cache, graph.params[f"{node.name}.w"])
            grads[f"{node.name}.w"] = dw
            grads[f"{node.name}.b"] = db
        elif node.kind == "dense":
            dy, dw, db = node.backward(dy, cache, graph.params[f"{node.name}.w"])
            grads[f"{node.name}.w"] = dw
            grads[f"{node.name}.b"] = db
        elif node.kind == "maxpool2d":
            dy = node.backward(dy, cache)
        else:
            dy = node.backward(dy, cache)
    return GradientBundle(params=grads, input_grad=dy)


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
        new_velocity[key] = v.astype(p.dtype)
        new_params[key] = (p - p.dtype.type(lr) * v).astype(p.dtype)
    return new_params, new_velocity
