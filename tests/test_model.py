import hashlib
import json

import numpy as np
import pytest

from guidedretrain.autodiff import Dense, Graph, GraphError, Relu, forward_eval
from guidedretrain.model import (
    ArchitectureDescriptor,
    BadMagicError,
    Dataset,
    ModelState,
    TrainParams,
    TruncatedFileError,
    VersionMismatchError,
    accuracy,
    activation_traces,
    build_model,
    desk_architecture,
    forward_pass,
    load_model,
    model_bytes,
    predict,
    save_model,
    trace_columns,
    train,
)
from guidedretrain.rng import Pcg32

# closed-form parameter count of the default 16x16x1, 4-class architecture:
# conv1 3*3*1*8+8 = 80, conv2 3*3*8*16+16 = 1168,
# dense1 256*32+32 = 8224, dense2 32*4+4 = 132
DESK_PARAM_COUNT = 80 + 1168 + 8224 + 132


def trace_width(arch, layers=None) -> int:
    """Trace columns of the selected (default: all) conv/dense layers."""
    return sum(cols.stop - cols.start for cols in trace_columns(arch, layers).values())


def toy_dataset(n_per_class=20, seed=0):
    """Two linearly separable classes: dark images vs bright images."""
    rng = Pcg32(seed)
    n = 2 * n_per_class
    noise = rng.uniforms(n * 4 * 4) * 0.1
    images = np.zeros((n, 4, 4, 1), dtype=np.float32)
    labels = np.zeros(n, dtype=np.int64)
    for i in range(n):
        base = 0.1 if i % 2 == 0 else 0.8
        images[i, :, :, 0] = base + noise[i * 16:(i + 1) * 16].reshape(4, 4)
        labels[i] = i % 2
    return Dataset(np.clip(images, 0.0, 1.0), labels, class_count=2)


def tiny_arch():
    return ArchitectureDescriptor(
        input_shape=(4, 4, 1),
        classes=2,
        layers=(Dense("hidden", 4), Relu("act"), Dense("out", 2)),
    )


def test_build_model_deterministic():
    arch = desk_architecture()
    a = build_model(arch, seed=7)
    b = build_model(arch, seed=7)
    c = build_model(arch, seed=8)
    for key in a.parameters:
        assert np.array_equal(a.parameters[key], b.parameters[key])
    assert any(not np.array_equal(a.parameters[k], c.parameters[k]) for k in a.parameters)


def test_dense_shapes():
    arch = ArchitectureDescriptor((2, 4, 1), 4, (Dense("d", 4),))
    m = build_model(arch, seed=0)
    assert m.parameters["d.w"].shape == (8, 4)
    assert m.parameters["d.b"].shape == (4,)
    assert np.array_equal(m.parameters["d.b"], np.zeros(4, dtype=np.float32))


def test_desk_parameter_count():
    m = build_model(desk_architecture(), seed=0)
    assert sum(p.size for p in m.parameters.values()) == DESK_PARAM_COUNT


def test_train_zero_epochs_is_identity():
    arch = tiny_arch()
    m = build_model(arch, seed=1)
    data = toy_dataset()
    out = train(m, data, TrainParams(epochs=0))
    for key in m.parameters:
        assert np.array_equal(out.parameters[key], m.parameters[key])


def test_train_separable_reaches_full_accuracy():
    arch = tiny_arch()
    m = build_model(arch, seed=1)
    data = toy_dataset()
    trained = train(m, data, TrainParams(epochs=50, batch_size=8, lr=0.05, momentum=0.9, shuffle_seed=3))
    assert accuracy(trained, data) == 1.0


def test_train_deterministic_and_pure():
    arch = tiny_arch()
    m = build_model(arch, seed=2)
    snapshot = {k: v.copy() for k, v in m.parameters.items()}
    data = toy_dataset()
    hp = TrainParams(epochs=5, batch_size=8, lr=0.05, momentum=0.9, shuffle_seed=4)
    t1 = train(m, data, hp)
    t2 = train(m, data, hp)
    for key in m.parameters:
        assert np.array_equal(t1.parameters[key], t2.parameters[key])
        assert np.array_equal(m.parameters[key], snapshot[key])  # input unchanged
    assert len(t1.training_history) == 5


def test_train_rejects_class_mismatch():
    m = build_model(tiny_arch(), seed=0)
    data = toy_dataset()
    bad = Dataset(data.images, data.labels, class_count=3)
    with pytest.raises(ValueError):
        train(m, bad, TrainParams(epochs=1))


def test_predict_tie_breaks_low_class():
    arch = ArchitectureDescriptor((1, 1, 1), 2, (Dense("out", 2),))
    params = {
        "out.w": np.zeros((1, 2), dtype=np.float32),
        "out.b": np.array([2.0, 2.0], dtype=np.float32),
    }
    m = ModelState(arch, params)
    labels, probs = predict(m, np.full((3, 1, 1, 1), 0.5, dtype=np.float32))
    assert np.array_equal(labels, [0, 0, 0])
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)


def test_probabilities_normalized():
    m = build_model(desk_architecture(), seed=3)
    images = Pcg32(5).uniforms(6 * 16 * 16).reshape(6, 16, 16, 1).astype(np.float32)
    _, probs = predict(m, images)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)


def test_accuracy_definition():
    arch = ArchitectureDescriptor((1, 1, 1), 2, (Dense("out", 2),))
    # logits favour class 1 iff pixel > 0.5
    params = {
        "out.w": np.array([[-4.0, 4.0]], dtype=np.float32),
        "out.b": np.array([2.0, -2.0], dtype=np.float32),
    }
    m = ModelState(arch, params)
    images = np.array([0.0, 1.0, 1.0, 0.0], dtype=np.float32).reshape(4, 1, 1, 1)
    labels = np.array([0, 1, 0, 1])  # two of four are correct
    data = Dataset(images, labels, class_count=2)
    assert accuracy(m, data) == 0.5
    assert accuracy(m, data) == accuracy(m, data)


def test_trace_lengths():
    arch = desk_architecture()
    m = build_model(arch, seed=0)
    img = np.zeros((16, 16, 1), dtype=np.float32)
    tr = activation_traces(m, img, ["dense1"])[0]
    assert tr.shape == (32,)
    all_layers = arch.neuron_layers()
    tr_all = activation_traces(m, img, all_layers)[0]
    # conv1 16*16*8 + conv2 8*8*16 + dense1 32 + dense2 4
    assert tr_all.shape == (2048 + 1024 + 32 + 4,)
    assert trace_width(arch) == 3108
    assert trace_width(arch, ["dense1"]) == 32


def test_trace_deterministic_and_bulk_consistent():
    m = build_model(desk_architecture(), seed=4)
    img = Pcg32(9).uniforms(16 * 16).reshape(16, 16, 1).astype(np.float32)
    a = activation_traces(m, img, ["conv1", "dense1"])[0]
    b = activation_traces(m, img, ["dense1", "conv1"])[0]  # order of request irrelevant
    assert np.array_equal(a, b)
    assert tuple(trace_columns(m.architecture, ["conv1", "dense1"])) == ("conv1", "dense1")
    bulk = activation_traces(m, img[None], ["conv1", "dense1"])
    assert np.array_equal(bulk[0], a)


def test_trace_rejects_unknown_and_neuronless_layers():
    m = build_model(desk_architecture(), seed=0)
    img = np.zeros((16, 16, 1), dtype=np.float32)
    with pytest.raises(KeyError):
        activation_traces(m, img, ["nope"])
    with pytest.raises(KeyError):
        activation_traces(m, img, ["pool1"])


def test_save_load_round_trip(tmp_path):
    m = build_model(desk_architecture(), seed=11)
    path = tmp_path / "model.grcnn"
    save_model(m, path)
    loaded, lines = load_model(path)
    assert lines == ()
    assert loaded.architecture == m.architecture
    for key in m.parameters:
        assert np.array_equal(loaded.parameters[key], m.parameters[key])
    # predictions identical after the round trip
    images = Pcg32(12).uniforms(4 * 16 * 16).reshape(4, 16, 16, 1).astype(np.float32)
    l0, p0 = predict(m, images)
    l1, p1 = predict(loaded, images)
    assert np.array_equal(l0, l1)
    assert np.array_equal(p0, p1)


def test_save_writes_canonical_parameter_order(tmp_path):
    m = build_model(desk_architecture(), seed=11)
    reversed_params = dict(reversed(list(m.parameters.items())))
    shuffled = ModelState(m.architecture, reversed_params)
    save_model(m, tmp_path / "canonical.grcnn")
    save_model(shuffled, tmp_path / "reversed.grcnn")
    assert (tmp_path / "canonical.grcnn").read_bytes() == (tmp_path / "reversed.grcnn").read_bytes()
    loaded, _ = load_model(tmp_path / "reversed.grcnn")
    for key in m.parameters:
        assert np.array_equal(loaded.parameters[key], m.parameters[key])


def test_model_file_size(tmp_path):
    m = build_model(desk_architecture(), seed=11)
    path = tmp_path / "model.grcnn"
    save_model(m, path, ("a = 1", "b = é"))
    blob = m.architecture.to_json().encode("utf-8")
    lines = "a = 1\nb = é\n".encode("utf-8")
    expected = 7 + 1 + 8 + len(blob) + 8 + len(lines) + 4 * DESK_PARAM_COUNT
    assert path.stat().st_size == expected


def v1_bytes(model) -> bytes:
    """The model file as format version 1 wrote it: no lines after the descriptor."""
    raw = model_bytes(model)
    descriptor_end = 16 + int.from_bytes(raw[8:16], "little")
    assert raw[descriptor_end:descriptor_end + 8] == bytes(8)  # no lines
    return raw[:7] + bytes([1]) + raw[8:descriptor_end] + raw[descriptor_end + 8:]


@pytest.mark.parametrize("lines", [(), ("",), ("a = 1", "", "idx.train_images = data/x y")])
def test_model_file_keeps_its_lines(tmp_path, lines):
    m = build_model(tiny_arch(), seed=0)
    save_model(m, tmp_path / "model.grcnn", lines)
    loaded, stored = load_model(tmp_path / "model.grcnn")
    assert stored == lines
    assert model_bytes(loaded, stored) == model_bytes(m, lines)


def test_version_1_model_file_still_loads(tmp_path):
    m = build_model(desk_architecture(), seed=11)
    (tmp_path / "v1.grcnn").write_bytes(v1_bytes(m))
    assert len(v1_bytes(m)) == 38911  # the size the version 1 pin held
    loaded, lines = load_model(tmp_path / "v1.grcnn")
    assert lines == ()
    assert model_bytes(loaded) == model_bytes(m)


def test_model_file_errors(tmp_path):
    m = build_model(tiny_arch(), seed=0)
    path = tmp_path / "model.grcnn"
    save_model(m, path)
    raw = path.read_bytes()

    bad_magic = tmp_path / "bad_magic"
    bad_magic.write_bytes(b"XXXXXXX" + raw[7:])
    with pytest.raises(BadMagicError):
        load_model(bad_magic)

    bad_version = tmp_path / "bad_version"
    bad_version.write_bytes(raw[:7] + bytes([9]) + raw[8:])
    with pytest.raises(VersionMismatchError):
        load_model(bad_version)

    truncated = tmp_path / "truncated"
    truncated.write_bytes(raw[:-5])
    with pytest.raises(TruncatedFileError):
        load_model(truncated)

    trailing = tmp_path / "trailing"
    trailing.write_bytes(raw + b"\x00\x00")
    with pytest.raises(TruncatedFileError):
        load_model(trailing)


def test_truncated_lines_block_is_refused(tmp_path):
    m = build_model(tiny_arch(), seed=0)
    raw = model_bytes(m, ("seed.init = 11", "seed.shuffle = 22"))
    lines_at = 16 + int.from_bytes(raw[8:16], "little")
    # cut inside the length, inside the text, and a length beyond the file
    for damaged in (raw[:lines_at + 3], raw[:lines_at + 12],
                    raw[:lines_at] + (len(raw) * 2).to_bytes(8, "little") + raw[lines_at + 8:]):
        (tmp_path / "model.grcnn").write_bytes(damaged)
        with pytest.raises(TruncatedFileError, match="lines truncated"):
            load_model(tmp_path / "model.grcnn")


def test_dataset_validation():
    good = np.zeros((2, 2, 2, 1), dtype=np.float32)
    Dataset(good, np.array([0, 1]), class_count=2)
    with pytest.raises(ValueError):
        Dataset(good, np.array([0, 2]), class_count=2)
    with pytest.raises(ValueError):
        Dataset(good + 1.5, np.array([0, 1]), class_count=2)
    with pytest.raises(ValueError):
        Dataset(good, np.array([0]), class_count=2)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_pixels(value):
    images = np.full((3, 2, 2, 1), 0.5, dtype=np.float32)
    images[1, 1, 0, 0] = value
    images[2, 0, 1, 0] = value
    with pytest.raises(ValueError, match="row 1 has a non-finite pixel"):
        Dataset(images, np.array([0, 1, 0]), class_count=2)


def test_architecture_validation():
    with pytest.raises(ValueError):
        ArchitectureDescriptor((4, 4, 1), 1, (Dense("out", 1),))
    with pytest.raises(ValueError):
        ArchitectureDescriptor((4, 4, 1), 2, (Dense("out", 3),))
    with pytest.raises(ValueError):
        ArchitectureDescriptor((4, 4, 1), 2, (Dense("a", 4), Dense("a", 2)))
    with pytest.raises(ValueError):
        ArchitectureDescriptor((4, 4, 1), 2, (Dense("a", 4), Relu("r")))


def test_architecture_json_round_trip():
    arch = desk_architecture()
    again = ArchitectureDescriptor.from_json(arch.to_json())
    assert again == arch
    assert again.to_json() == arch.to_json()


# the model file format: the desk descriptor's JSON and a whole file's digest
DESK_JSON = (
    '{"classes":4,"input_shape":[16,16,1],"layers":['
    '{"filters":8,"kernel":3,"kind":"conv","name":"conv1","padding":"same","stride":1},'
    '{"kind":"relu","name":"relu1"},{"kind":"maxpool","name":"pool1","size":2},'
    '{"filters":16,"kernel":3,"kind":"conv","name":"conv2","padding":"same","stride":1},'
    '{"kind":"relu","name":"relu2"},{"kind":"maxpool","name":"pool2","size":2},'
    '{"kind":"dense","name":"dense1","units":32},{"kind":"relu","name":"relu3"},'
    '{"kind":"dense","name":"dense2","units":4}]}'
)


def test_desk_descriptor_and_model_bytes_are_pinned():
    assert desk_architecture().to_json() == DESK_JSON
    model = build_model(desk_architecture(), seed=11)
    raw = model_bytes(model)
    assert len(raw) == 38919
    assert hashlib.sha256(raw).hexdigest() == \
        "a641cbf54b7004440c783b992007837291937363e904ba0342c237fd3ca9bcbf"
    raw = model_bytes(model, ("guidedretrain model v1", "seed.init = 11"))
    assert len(raw) == 38919 + 38
    assert hashlib.sha256(raw).hexdigest() == \
        "e86dc2e3780061785ddc072d83b4df7793439371d4b1e5694d5654b4b81968f1"
    # version 1, with the pin it held
    assert hashlib.sha256(v1_bytes(model)).hexdigest() == \
        "267bb6259b07bff8ec5f73dafcae8b0a3aabd587353425594a2b36d3d5e8902e"


@pytest.mark.parametrize("entry", [
    {"kind": "pool", "name": "bad", "size": 2},  # unknown kind
    {"name": "bad", "units": 2},  # no kind
    {"kind": "conv", "name": "bad", "filters": 8, "kernel": 3},  # missing fields
    {"kind": "relu", "name": "bad", "units": 2},  # a field relu does not have
])
def test_malformed_layer_is_named(entry):
    doc = json.loads(DESK_JSON)
    doc["layers"][1] = entry
    with pytest.raises(ValueError, match="layer 1 \\('bad'\\)"):
        ArchitectureDescriptor.from_json(json.dumps(doc))


@pytest.mark.parametrize("batch_size", [1, 7, 256, 300])
def test_forward_pass_matches_predict_and_activation_traces(batch_size):
    m = build_model(desk_architecture(), seed=6)
    images = Pcg32(13).uniforms(270 * 16 * 16).reshape(270, 16, 16, 1).astype(np.float32)
    fp = forward_pass(m, images, batch_size=batch_size)
    # the pass keeps float32; activation_traces widens the same values
    assert fp.traces.dtype == np.float32
    assert fp.traces.shape == (270, trace_width(m.architecture))
    assert np.array_equal(fp.labels, predict(m, images, batch_size=batch_size)[0])
    columns = trace_columns(m.architecture)
    for name in m.architecture.neuron_layers():
        want = activation_traces(m, images, [name], batch_size=batch_size)
        assert want.dtype == np.float64
        assert np.array_equal(fp.traces[:, columns[name]].astype(np.float64), want), name
        assert np.array_equal(fp.block([name]).astype(np.float64), want), name
    # and a row's outputs do not depend on its batch
    default = forward_pass(m, images)
    assert np.array_equal(fp.labels, default.labels)
    assert np.array_equal(fp.traces, default.traces)


@pytest.mark.parametrize("batch_size", [1, 7, 33])
def test_predict_probabilities_from_the_head_trace_are_the_softmax_of_the_logits(batch_size):
    # the softmax taken batch by batch from forward_eval's logits, as predict
    # once computed it, bit for bit
    m = build_model(desk_architecture(), seed=8)
    images = Pcg32(21).uniforms(70 * 16 * 16).reshape(70, 16, 16, 1).astype(np.float32)
    want = []
    for start in range(0, len(images), batch_size):
        logits = forward_eval(m.graph(), images[start:start + batch_size]).logits.astype(np.float64)
        logits -= logits.max(axis=1, keepdims=True)
        e = np.exp(logits)
        want.append((e / e.sum(axis=1, keepdims=True)).astype(np.float32))
    labels, probs = predict(m, images, batch_size=batch_size)
    assert probs.dtype == np.float32
    assert np.array_equal(probs.view(np.uint32), np.concatenate(want).view(np.uint32))
    assert np.array_equal(labels, forward_pass(m, images).labels)


def test_forward_pass_blocks():
    m = build_model(desk_architecture(), seed=2)
    images = Pcg32(3).uniforms(5 * 16 * 16).reshape(5, 16, 16, 1).astype(np.float32)
    fp = forward_pass(m, images)
    assert fp.block() is fp.traces
    assert np.shares_memory(fp.block(["conv2", "dense1"]), fp.traces)  # adjacent: a view
    assert np.array_equal(fp.block(["dense1", "conv1"]),
                          activation_traces(m, images, ["conv1", "dense1"]))
    with pytest.raises(KeyError):
        fp.block(["pool1"])


def test_trace_columns_and_shape_only_graph():
    arch = desk_architecture()
    assert trace_columns(arch) == {"conv1": slice(0, 2048), "conv2": slice(2048, 3072),
                                   "dense1": slice(3072, 3104), "dense2": slice(3104, 3108)}
    assert trace_columns(arch, ["dense2", "conv2"]) == {"conv2": slice(0, 1024),
                                                        "dense2": slice(1024, 1028)}
    shapes = Graph(arch.input_shape, arch.layers)
    assert shapes.param_shapes()["dense1.w"] == (256, 32)
    with pytest.raises(GraphError, match="without parameters"):
        forward_eval(shapes, np.zeros((1, 16, 16, 1), dtype=np.float32))
