import math

import numpy as np
import pytest

from guidedretrain.autodiff import (
    Conv2D,
    Dense,
    Graph,
    GradientBundle,
    GraphError,
    MaxPool2D,
    Relu,
    backward_grads,
    forward_eval,
    sgd_step,
)
from guidedretrain.rng import Pcg32


def finite_diff_grads(graph, x, labels, h=1e-3):
    """Central-difference oracle on the float64 graph, one scalar at a time."""

    def loss_with(params):
        saved = graph.params
        graph.params = params
        val = forward_eval(graph, x, labels).loss
        graph.params = saved
        return val

    fd = {}
    for key, base in graph.params.items():
        grad = np.zeros_like(base, dtype=np.float64).reshape(-1)
        for i in range(base.size):
            plus = {k: v.copy() for k, v in graph.params.items()}
            plus[key].reshape(-1)[i] += h
            minus = {k: v.copy() for k, v in graph.params.items()}
            minus[key].reshape(-1)[i] -= h
            grad[i] = (loss_with(plus) - loss_with(minus)) / (2 * h)
        fd[key] = grad.reshape(base.shape)
    xg = np.zeros(x.size, dtype=np.float64)
    for i in range(x.size):
        xp = x.copy().reshape(-1)
        xp[i] += h
        xm = x.copy().reshape(-1)
        xm[i] -= h
        lp = forward_eval(graph, xp.reshape(x.shape), labels).loss
        lm = forward_eval(graph, xm.reshape(x.shape), labels).loss
        xg[i] = (lp - lm) / (2 * h)
    return fd, xg.reshape(x.shape)


def max_rel_err(a, b, floor=1e-8):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / denom).max())


def _random_params(graph, seed):
    rng = Pcg32(seed)
    params = {}
    for key, shape in graph.param_shapes().items():
        n = int(np.prod(shape))
        params[key] = ((rng.uniforms(n) - 0.5).reshape(shape)).astype(graph.dtype)
    return params


def small_cnn_graph(seed=0, dtype=np.float64):
    layers = [
        Conv2D("c1", filters=3, kernel=3, stride=1, padding="same"),
        Relu("r1"),
        MaxPool2D("p1", size=2),
        Conv2D("c2", filters=4, kernel=3, stride=2, padding="valid"),
        Relu("r2"),
        Dense("d1", units=5),
        Relu("r3"),
        Dense("d2", units=3),
    ]
    g = Graph((8, 8, 2), layers, _shape_probe_params((8, 8, 2), layers, dtype), dtype=dtype)
    g.params = _random_params(g, seed)
    return g


def _shape_probe_params(input_shape, layers, dtype):
    """Zero parameters with the shapes the layer chain implies."""
    params = {}
    shape = tuple(input_shape)
    for spec in layers:
        if isinstance(spec, Conv2D):
            h, w, c = shape
            params[f"{spec.name}.w"] = np.zeros((spec.kernel, spec.kernel, c, spec.filters), dtype=dtype)
            params[f"{spec.name}.b"] = np.zeros((spec.filters,), dtype=dtype)
            if spec.padding == "same":
                oh, ow = -(-h // spec.stride), -(-w // spec.stride)
            else:
                oh = (h - spec.kernel) // spec.stride + 1
                ow = (w - spec.kernel) // spec.stride + 1
            shape = (oh, ow, spec.filters)
        elif isinstance(spec, MaxPool2D):
            h, w, c = shape
            shape = (h // spec.size, w // spec.size, c)
        elif isinstance(spec, Dense):
            d = int(np.prod(shape))
            params[f"{spec.name}.w"] = np.zeros((d, spec.units), dtype=dtype)
            params[f"{spec.name}.b"] = np.zeros((spec.units,), dtype=dtype)
            shape = (spec.units,)
    return params


def test_dense_identity_cross_entropy():
    # identity weights, zero bias, input (1, 0): loss = ln(1 + e^-1)
    layers = [Dense("out", units=2)]
    params = {"out.w": np.eye(2, dtype=np.float32), "out.b": np.zeros(2, dtype=np.float32)}
    g = Graph((1, 1, 2), layers, params)
    state = forward_eval(g, np.array([[[1.0, 0.0]]], dtype=np.float32), labels=0)
    assert np.allclose(state.logits, [[1.0, 0.0]])
    assert state.loss == pytest.approx(math.log(1 + math.exp(-1)), abs=1e-6)


def test_relu_forward():
    layers = [Relu("r"), Dense("out", units=2)]
    params = {"out.w": np.eye(2, dtype=np.float32), "out.b": np.zeros(2, dtype=np.float32)}
    g = Graph((1, 1, 2), layers, params)
    state = forward_eval(g, np.array([[[-1.0, 2.0]]], dtype=np.float32))
    assert np.array_equal(state.activations["r"][0, 0, 0], [0.0, 2.0])


def test_conv_all_ones_valid():
    # 3x3 kernel of ones over a 4x4 of ones, valid padding: every output is 9
    layers = [Conv2D("c", filters=1, kernel=3, stride=1, padding="valid"), Dense("out", units=2)]
    params = {
        "c.w": np.ones((3, 3, 1, 1), dtype=np.float32),
        "c.b": np.zeros(1, dtype=np.float32),
        "out.w": np.zeros((4, 2), dtype=np.float32),
        "out.b": np.zeros(2, dtype=np.float32),
    }
    g = Graph((4, 4, 1), layers, params)
    state = forward_eval(g, np.ones((4, 4, 1), dtype=np.float32))
    conv = state.activations["c"]
    assert conv.shape == (1, 2, 2, 1)
    assert np.array_equal(conv, np.full((1, 2, 2, 1), 9.0, dtype=np.float32))


def test_conv_shape_algebra():
    cases = [
        # (H, W), kernel, stride, padding -> (oh, ow)
        ((16, 16), 3, 1, "same", (16, 16)),
        ((16, 16), 3, 2, "same", (8, 8)),
        ((16, 16), 3, 1, "valid", (14, 14)),
        ((15, 11), 3, 2, "valid", (7, 5)),
        ((15, 11), 3, 2, "same", (8, 6)),
    ]
    for (h, w), k, s, pad, (oh, ow) in cases:
        layers = [Conv2D("c", filters=2, kernel=k, stride=s, padding=pad), Dense("out", units=2)]
        params = _shape_probe_params((h, w, 1), layers, np.float32)
        g = Graph((h, w, 1), layers, params)
        state = forward_eval(g, np.zeros((h, w, 1), dtype=np.float32))
        assert state.activations["c"].shape == (1, oh, ow, 2), (h, w, k, s, pad)


def test_maxpool_crops_non_divisible():
    layers = [MaxPool2D("p", size=2), Dense("out", units=2)]
    params = _shape_probe_params((5, 5, 1), layers, np.float32)
    g = Graph((5, 5, 1), layers, params)
    state = forward_eval(g, np.arange(25, dtype=np.float32).reshape(5, 5, 1))
    assert state.activations["p"].shape == (1, 2, 2, 1)
    assert state.activations["p"][0, 0, 0, 0] == 6.0  # max of rows 0-1, cols 0-1


def test_linear_node_grads():
    # single weight w=3 feeding the class-0 logit of input x=2
    layers = [Dense("out", units=2)]
    params = {
        "out.w": np.array([[3.0, 0.0]], dtype=np.float32),
        "out.b": np.zeros(2, dtype=np.float32),
    }
    g = Graph((1, 1, 1), layers, params)
    x = np.array([[[2.0]]], dtype=np.float32)
    state = forward_eval(g, x, labels=0)
    grads = backward_grads(state)
    # d loss / d logit0 = p0 - 1; chain through w and x
    z = 3.0 * 2.0
    p0 = math.exp(z) / (math.exp(z) + 1.0)
    assert grads.params["out.w"][0, 0] == pytest.approx((p0 - 1) * 2.0, rel=1e-5)
    assert grads.input_grad[0, 0, 0, 0] == pytest.approx((p0 - 1) * 3.0, rel=1e-5)


def test_relu_blocks_gradient_at_negative_and_zero():
    layers = [Relu("r"), Dense("out", units=2)]
    params = {
        "out.w": np.ones((2, 2), dtype=np.float32),
        "out.b": np.zeros(2, dtype=np.float32),
    }
    g = Graph((1, 1, 2), layers, params)
    for blocked in (-1.0, 0.0):
        x = np.array([[[blocked, 1.0]]], dtype=np.float32)
        grads = backward_grads(forward_eval(g, x, labels=0))
        assert grads.input_grad[0, 0, 0, 0] == 0.0


def test_gradcheck_small_cnn():
    g = small_cnn_graph(seed=1, dtype=np.float64)
    rng = Pcg32(99)
    x = rng.uniforms(2 * 8 * 8 * 2).reshape(2, 8, 8, 2)
    labels = np.array([0, 2])
    state = forward_eval(g, x, labels)
    grads = backward_grads(state)
    fd, fd_input = finite_diff_grads(g, x, labels)
    worst = max_rel_err(grads.input_grad, fd_input)
    for key in g.params:
        worst = max(worst, max_rel_err(grads.params[key], fd[key]))
    assert worst < 1e-3, worst


def test_sgd_plain():
    params = {"w": np.array([1.0], dtype=np.float32)}
    grads = GradientBundle(params={"w": np.array([2.0], dtype=np.float32)}, input_grad=np.zeros(1))
    new, _ = sgd_step(params, grads, lr=0.1, momentum=0.0)
    assert new["w"][0] == pytest.approx(0.8, abs=1e-7)
    assert params["w"][0] == 1.0  # untouched


def test_sgd_momentum_hand_computed():
    # v = 0.9*1 + 2 = 2.9; w = 1 - 0.1*2.9 = 0.71
    params = {"w": np.array([1.0], dtype=np.float32)}
    grads = GradientBundle(params={"w": np.array([2.0], dtype=np.float32)}, input_grad=np.zeros(1))
    vel = {"w": np.array([1.0], dtype=np.float32)}
    new, vel2 = sgd_step(params, grads, lr=0.1, momentum=0.9, velocity=vel)
    assert vel2["w"][0] == pytest.approx(2.9, abs=1e-6)
    assert new["w"][0] == pytest.approx(0.71, abs=1e-6)


def test_sgd_zero_gradient_fixed_point():
    params = {"w": np.array([1.5, -2.0], dtype=np.float32)}
    grads = GradientBundle(params={"w": np.zeros(2, dtype=np.float32)}, input_grad=np.zeros(1))
    new, _ = sgd_step(params, grads, lr=0.5, momentum=0.9)
    assert np.array_equal(new["w"], params["w"])


@pytest.mark.parametrize("with_velocity", [False, True])
def test_sgd_returns_fresh_arrays_with_the_formula_bits(with_velocity):
    rng = np.random.default_rng(8)
    params = {k: rng.standard_normal(shape).astype(np.float32) for k, shape in (("w", (3, 4)), ("b", (4,)))}
    grads = GradientBundle(params={k: rng.standard_normal(p.shape).astype(np.float32)
                                   for k, p in params.items()}, input_grad=None)
    velocity = ({k: rng.standard_normal(p.shape).astype(np.float32) for k, p in params.items()}
                if with_velocity else None)
    before = {k: p.copy() for k, p in params.items()}
    new, new_velocity = sgd_step(params, grads, lr=0.05, momentum=0.9, velocity=velocity)
    old_velocity = velocity or {k: np.zeros_like(p) for k, p in params.items()}
    for key, p in params.items():
        v = (0.9 * old_velocity[key] + grads.params[key]).astype(np.float32)
        want = (p - np.float32(0.05) * v).astype(np.float32)
        assert new_velocity[key].dtype == new[key].dtype == np.float32
        assert np.array_equal(new_velocity[key].view(np.uint32), v.view(np.uint32))
        assert np.array_equal(new[key].view(np.uint32), want.view(np.uint32))
        assert np.array_equal(p.view(np.uint32), before[key].view(np.uint32))
        inputs = [p, grads.params[key]] + ([velocity[key]] if velocity else [])
        for out in (new[key], new_velocity[key]):
            assert not any(np.shares_memory(out, arr) for arr in inputs)
        assert not np.shares_memory(new[key], new_velocity[key])


def test_sgd_rejects_bad_lr():
    params = {"w": np.zeros(1, dtype=np.float32)}
    grads = GradientBundle(params={"w": np.zeros(1, dtype=np.float32)}, input_grad=np.zeros(1))
    with pytest.raises(ValueError):
        sgd_step(params, grads, lr=0.0, momentum=0.0)
    with pytest.raises(ValueError):
        sgd_step(params, grads, lr=-1.0, momentum=0.0)


def test_forward_determinism():
    g = small_cnn_graph(seed=5, dtype=np.float32)
    x = Pcg32(6).uniforms(8 * 8 * 2).reshape(1, 8, 8, 2)
    a = forward_eval(g, x, labels=[1])
    b = forward_eval(g, x, labels=[1])
    assert np.array_equal(a.logits, b.logits)
    assert a.loss == b.loss


def test_shape_mismatch_names_node():
    layers = [Conv2D("convA", filters=2, kernel=3), Dense("out", units=2)]
    params = _shape_probe_params((8, 8, 1), layers, np.float32)
    g = Graph((8, 8, 1), layers, params)
    with pytest.raises(GraphError):
        forward_eval(g, np.zeros((4, 4, 1), dtype=np.float32))
    bad = dict(params)
    bad["convA.w"] = np.zeros((3, 3, 2, 2), dtype=np.float32)
    with pytest.raises(GraphError, match="convA"):
        Graph((8, 8, 1), layers, bad)


def test_non_finite_parameter_rejected():
    layers = [Dense("out", units=2)]
    params = {
        "out.w": np.array([[np.nan, 0.0]], dtype=np.float32),
        "out.b": np.zeros(2, dtype=np.float32),
    }
    g = Graph((1, 1, 1), layers, params)
    with pytest.raises(GraphError, match="out.w"):
        forward_eval(g, np.zeros((1, 1, 1), dtype=np.float32))


def test_backward_without_forward_rejected():
    with pytest.raises(GraphError):
        backward_grads(None)


def test_batch_dimension_preserved():
    g = small_cnn_graph(seed=2, dtype=np.float32)
    for n in (1, 3, 7):
        x = np.zeros((n, 8, 8, 2), dtype=np.float32)
        state = forward_eval(g, x)
        assert state.logits.shape == (n, 3)
        for act in state.activations.values():
            assert act.shape[0] == n
