"""Small CNN classifiers: build, train, evaluate, serialize, extract traces.

A ModelState is immutable: training returns a new state, so retraining
configurations that restart "from the original weights" are exact by
construction. Weights initialize He-uniform from a PCG32 stream; training is
plain mini-batch SGD with momentum and a PCG32-shuffled batch order.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Conv2D, Dense, Graph, MaxPool2D, Relu, backward_grads, forward_eval, sgd_step
from .rng import Pcg32

MAGIC = b"GRCNN1\x00"
FORMAT_VERSION = 2  # 2 added the lines after the descriptor; 1 still loads
# Rows per inference forward. A row's outputs do not depend on its batch, so
# the size bounds memory, not results: each batch's float64 temporaries take
# about 3.1 MB at 32 rows. Larger batches gain little (a Test* pass took 44,
# 41 and 39 ms at 32, 64 and 128 rows on one BLAS thread of a 2-core VM).
INFERENCE_BATCH = 32
# each layer kind of the descriptor JSON and its dataclass, whose fields are
# the kind's JSON fields
_LAYER_KINDS = {"conv": Conv2D, "maxpool": MaxPool2D, "dense": Dense, "relu": Relu}


class ModelFileError(ValueError):
    """Base class for model file problems."""


class BadMagicError(ModelFileError):
    pass


class VersionMismatchError(ModelFileError):
    pass


class TruncatedFileError(ModelFileError):
    pass


@dataclass(frozen=True)
class ArchitectureDescriptor:
    """Layer chain plus input shape; the last layer is the dense class head."""

    input_shape: tuple[int, int, int]
    classes: int
    layers: tuple

    def __post_init__(self):
        if self.classes < 2:
            raise ValueError(f"need at least 2 classes, got {self.classes}")
        names = [layer.name for layer in self.layers]
        if len(set(names)) != len(names):
            raise ValueError("layer names must be unique")
        if not self.layers or not isinstance(self.layers[-1], Dense):
            raise ValueError("architecture must end in a dense head")
        if self.layers[-1].units != self.classes:
            raise ValueError(
                f"head has {self.layers[-1].units} units but classes = {self.classes}"
            )

    def neuron_layers(self) -> tuple[str, ...]:
        """Names of the conv/dense layers, in architecture order."""
        return tuple(l.name for l in self.layers if isinstance(l, (Conv2D, Dense)))

    def post_activation_source(self, name: str) -> str:
        """Node whose output is the post-activation value of neuron layer `name`.

        That is the relu immediately following the layer when present,
        otherwise the layer itself.
        """
        for i, layer in enumerate(self.layers):
            if layer.name == name:
                if not isinstance(layer, (Conv2D, Dense)):
                    raise KeyError(f"layer {name!r} has no neurons")
                nxt = self.layers[i + 1] if i + 1 < len(self.layers) else None
                if isinstance(nxt, Relu):
                    return nxt.name
                return name
        raise KeyError(f"unknown layer {name!r}")

    def to_json(self) -> str:
        kinds = {cls: kind for kind, cls in _LAYER_KINDS.items()}
        entries = []
        for layer in self.layers:
            if type(layer) not in kinds:
                raise ValueError(f"unknown layer {layer!r}")
            entries.append({"kind": kinds[type(layer)], **dataclasses.asdict(layer)})
        doc = {"input_shape": list(self.input_shape), "classes": self.classes, "layers": entries}
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "ArchitectureDescriptor":
        doc = json.loads(text)
        layers = []
        for i, entry in enumerate(doc["layers"]):
            fields = dict(entry)
            cls = _LAYER_KINDS.get(fields.pop("kind", None))
            names = {f.name for f in dataclasses.fields(cls)} if cls else set()
            if cls is None or set(fields) != names:
                raise ValueError(f"malformed layer {i} ({entry.get('name')!r}): {entry}")
            layers.append(cls(**fields))
        return ArchitectureDescriptor(tuple(doc["input_shape"]), doc["classes"], tuple(layers))


def desk_architecture(input_shape=(16, 16, 1), classes=4) -> ArchitectureDescriptor:
    """Default desk-scale CNN exercising every supported layer kind."""
    return ArchitectureDescriptor(
        input_shape=tuple(input_shape),
        classes=classes,
        layers=(
            Conv2D("conv1", filters=8, kernel=3, stride=1, padding="same"),
            Relu("relu1"),
            MaxPool2D("pool1", size=2),
            Conv2D("conv2", filters=16, kernel=3, stride=1, padding="same"),
            Relu("relu2"),
            MaxPool2D("pool2", size=2),
            Dense("dense1", units=32),
            Relu("relu3"),
            Dense("dense2", units=classes),
        ),
    )


@dataclass(frozen=True)
class ModelState:
    architecture: ArchitectureDescriptor
    parameters: dict
    training_history: tuple = ()

    def graph(self) -> Graph:
        return Graph(self.architecture.input_shape, self.architecture.layers, self.parameters)


@dataclass(frozen=True)
class Dataset:
    """Images (N, H, W, C) in [0, 1] with integer class labels."""

    images: np.ndarray
    labels: np.ndarray
    class_count: int

    def __post_init__(self):
        if self.images.ndim != 4:
            raise ValueError(f"images must be (N, H, W, C), got {self.images.shape}")
        if len(self.labels) != len(self.images):
            raise ValueError("images and labels disagree on N")
        if len(self.images) < 1:
            raise ValueError("dataset must contain at least one input")
        bad = np.flatnonzero((self.labels < 0) | (self.labels >= self.class_count))
        if bad.size:
            raise ValueError(f"row {bad[0]} has label {self.labels[bad[0]]}, out of range "
                             f"for class_count {self.class_count}")
        lo, hi = float(self.images.min()), float(self.images.max())
        if not (lo >= 0.0 and hi <= 1.0):  # also true when min/max are NaN
            finite = np.isfinite(self.images.reshape(len(self.images), -1)).all(axis=1)
            if not finite.all():
                raise ValueError(f"image row {np.flatnonzero(~finite)[0]} has a non-finite pixel")
            raise ValueError(f"pixel values outside [0, 1]: min {lo}, max {hi}")

    def __len__(self) -> int:
        return len(self.images)

    def take(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.images[idx], self.labels[idx], self.class_count)


@dataclass(frozen=True)
class TrainParams:
    epochs: int = 20
    batch_size: int = 32
    lr: float = 0.01
    momentum: float = 0.9
    shuffle_seed: int = 0
    shuffle_stream: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


def _freeze(params: dict) -> dict:
    for arr in params.values():
        arr.flags.writeable = False
    return params


def build_model(arch: ArchitectureDescriptor, seed: int) -> ModelState:
    """He-uniform weights from PCG32(seed), zero biases."""
    shapes = _param_shapes(arch)
    rng = Pcg32(seed)
    params = {}
    for key, shape in shapes.items():
        if key.endswith(".b"):
            params[key] = np.zeros(shape, dtype=np.float32)
            continue
        fan_in = int(np.prod(shape[:-1]))
        limit = math.sqrt(6.0 / fan_in)
        u = rng.uniforms(int(np.prod(shape)))
        params[key] = ((2.0 * u - 1.0) * limit).astype(np.float32).reshape(shape)
    return ModelState(arch, _freeze(params))


def _param_shapes(arch: ArchitectureDescriptor) -> dict:
    """{parameter key: shape} in the canonical order of the model file."""
    return Graph(arch.input_shape, arch.layers).param_shapes()


def train(model: ModelState, data: Dataset, hp: TrainParams) -> ModelState:
    """Mini-batch SGD with momentum; returns a new ModelState, input untouched."""
    if data.class_count != model.architecture.classes:
        raise ValueError(
            f"dataset has {data.class_count} classes, model head expects {model.architecture.classes}"
        )
    params = {k: v.copy() for k, v in model.parameters.items()}
    graph = Graph(model.architecture.input_shape, model.architecture.layers, params)
    rng = Pcg32(hp.shuffle_seed, stream=hp.shuffle_stream)
    velocity = None
    history = list(model.training_history)
    n = len(data)
    for epoch in range(hp.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, hp.batch_size):
            idx = order[start:start + hp.batch_size]
            state = forward_eval(graph, data.images[idx], data.labels[idx])
            grads = backward_grads(state, input_grad=False)
            graph.params, velocity = sgd_step(graph.params, grads, hp.lr, hp.momentum, velocity)
            total += state.loss * len(idx)
        history.append((len(model.training_history) + epoch, total / n))
    return ModelState(model.architecture, _freeze(graph.params), tuple(history))


def _forward_batches(model: ModelState, images: np.ndarray, batch_size: int, columns: dict):
    """The batched inference loop behind predict, activation_traces and forward_pass.

    `images` is a batch (N, H, W, C) or one input (H, W, C). Returns
    (argmax labels, float32 traces or None); `columns` maps each traced
    neuron layer to its slice of trace columns, as trace_columns builds it.
    The activations are float32, so the traces hold them exactly. A row's
    outputs do not depend on its batch.
    """
    arch = model.architecture
    images = np.asarray(images, dtype=np.float32)
    if images.shape == arch.input_shape:
        images = images[None]
    n = len(images)
    graph = model.graph()
    sources = [(arch.post_activation_source(name), cols) for name, cols in columns.items()]
    labels = np.empty(n, dtype=np.int64)
    width = max((cols.stop for cols in columns.values()), default=0)
    traces = np.empty((n, width), dtype=np.float32) if columns else None
    for start in range(0, n, batch_size):
        state = forward_eval(graph, images[start:start + batch_size])
        rows = slice(start, start + state.batch)
        labels[rows] = state.logits.argmax(axis=1)
        for src, cols in sources:
            traces[rows, cols] = state.activations[src].reshape(state.batch, -1)
    return labels, traces


def predict(model: ModelState, images: np.ndarray, batch_size: int = INFERENCE_BATCH):
    """(argmax labels, softmax probabilities); ties resolve to the lowest class.

    The dense head has no relu after it, so its trace is the float32
    logits, widened here to float64.
    """
    head = model.architecture.layers[-1].name
    labels, logits = _forward_batches(model, images, batch_size,
                                      trace_columns(model.architecture, [head]))
    logits = logits.astype(np.float64)
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    return labels, (e / e.sum(axis=1, keepdims=True)).astype(np.float32)


def accuracy(model: ModelState, data: Dataset) -> float:
    labels = _forward_batches(model, data.images, INFERENCE_BATCH, {})[0]
    return float(np.mean(labels == data.labels))


def _resolve_trace_layers(arch: ArchitectureDescriptor, layers) -> tuple[str, ...]:
    known = arch.neuron_layers()
    requested = set(layers)
    unknown = requested - set(known)
    if unknown:
        all_names = {l.name for l in arch.layers}
        for name in sorted(unknown):
            if name not in all_names:
                raise KeyError(f"unknown layer {name!r}")
            raise KeyError(f"layer {name!r} has no neurons (select conv/dense layers)")
    # architecture order regardless of request order
    return tuple(name for name in known if name in requested)


def trace_columns(arch: ArchitectureDescriptor, layers=None) -> dict:
    """{layer: slice of its columns} in a trace matrix over the selected
    (default: all) conv/dense layers, in architecture order."""
    selected = arch.neuron_layers() if layers is None else _resolve_trace_layers(arch, layers)
    widths = {node.name: int(np.prod(node.out_shape))
              for node in Graph(arch.input_shape, arch.layers).nodes}
    columns = {}
    start = 0
    for name in selected:
        columns[name] = slice(start, start + widths[name])
        start += widths[name]
    return columns


def activation_traces(model: ModelState, images: np.ndarray, layers=None,
                      batch_size: int = INFERENCE_BATCH) -> np.ndarray:
    """Float64 trace matrix (N, total neurons of selected layers).

    `layers=None` selects every conv/dense layer.
    """
    columns = trace_columns(model.architecture, layers)
    if not columns:
        raise ValueError("no layers selected")
    return _forward_batches(model, images, batch_size, columns)[1].astype(np.float64)


@dataclass(frozen=True)
class ForwardPass:
    """One inference pass of a model over a set of images.

    `labels` are predict's labels; `traces` holds the float32 post-activation
    values of every conv/dense layer, in architecture order, one contiguous
    column block per layer. The values are the activations' own, so a metric
    that widens a block to float64 gets activation_traces' values; widening
    block by block keeps only one float32 copy of the whole matrix.
    """

    architecture: ArchitectureDescriptor
    labels: np.ndarray
    traces: np.ndarray

    def block(self, layers=None) -> np.ndarray:
        """Trace columns of the selected (default: all) layers, in architecture
        order; a view of `traces` when the layers are adjacent."""
        if layers is None:
            return self.traces
        columns = trace_columns(self.architecture)
        parts = [columns[name] for name in _resolve_trace_layers(self.architecture, layers)]
        if not parts:
            raise ValueError("no layers selected")
        if all(a.stop == b.start for a, b in zip(parts, parts[1:])):
            return self.traces[:, parts[0].start:parts[-1].stop]
        return np.concatenate([self.traces[:, cols] for cols in parts], axis=1)


def forward_pass(model: ModelState, images: np.ndarray, batch_size: int = INFERENCE_BATCH) -> ForwardPass:
    """Labels plus the traces of every conv/dense layer, from one batched pass."""
    labels, traces = _forward_batches(model, images, batch_size,
                                      trace_columns(model.architecture))
    return ForwardPass(model.architecture, labels, traces)


def model_bytes(model: ModelState, lines=()) -> bytes:
    """The model file's bytes: magic, version, the descriptor JSON and `lines`
    (newline-ended), each after its byte length, then raw float32 blobs."""
    blobs = [text.encode("utf-8") for text in
             (model.architecture.to_json(), "".join(f"{line}\n" for line in lines))]
    return b"".join([MAGIC, bytes([FORMAT_VERSION])]
                    + [len(blob).to_bytes(8, "little") + blob for blob in blobs]
                    + [np.ascontiguousarray(model.parameters[key], dtype="<f4").tobytes()
                       for key in _param_shapes(model.architecture)])


def save_model(model: ModelState, path, lines=()) -> None:
    with open(path, "wb") as fh:
        fh.write(model_bytes(model, lines))


def load_model(path) -> tuple[ModelState, tuple[str, ...]]:
    """(the model, the file's lines); a version 1 file has no lines."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < len(MAGIC) + 9:
        raise TruncatedFileError(f"file too short ({len(raw)} bytes)")
    if raw[:len(MAGIC)] != MAGIC:
        raise BadMagicError(f"bad magic {raw[:len(MAGIC)]!r}")
    version = raw[len(MAGIC)]
    if version not in (1, FORMAT_VERSION):
        raise VersionMismatchError(f"format version {version}, expected 1 or {FORMAT_VERSION}")
    off = len(MAGIC) + 1
    texts = []
    for part in ("descriptor", "lines")[:version]:
        end = off + 8 + int.from_bytes(raw[off:off + 8], "little")
        if len(raw) < end:
            raise TruncatedFileError(f"{part} truncated")
        texts.append(raw[off + 8:end].decode("utf-8"))
        off = end
    arch = ArchitectureDescriptor.from_json(texts[0])
    params = {}
    for key, shape in _param_shapes(arch).items():
        count = int(np.prod(shape))
        end = off + 4 * count
        if len(raw) < end:
            raise TruncatedFileError(f"parameter {key!r} truncated")
        params[key] = np.frombuffer(raw[off:end], dtype="<f4").reshape(shape).copy()
        off = end
    if off != len(raw):
        raise TruncatedFileError(f"{len(raw) - off} trailing bytes after parameters")
    return ModelState(arch, _freeze(params)), tuple("".join(texts[1:]).split("\n")[:-1])
