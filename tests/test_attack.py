import numpy as np
import pytest

from guidedretrain.attack import (
    build_augmented_sets,
    fgsm,
    select_attack_sources,
)
from guidedretrain.autodiff import Dense
from guidedretrain.model import ArchitectureDescriptor, Dataset, ModelState, build_model
from guidedretrain.rng import Pcg32


def random_dataset(n, h=8, w=8, classes=4, seed=0):
    rng = Pcg32(seed)
    images = rng.uniforms(n * h * w).reshape(n, h, w, 1).astype(np.float32)
    labels = (rng.u32_block(n) % classes).astype(np.int64)
    return Dataset(images, labels, class_count=classes)


def small_model(classes=4, h=8, w=8, seed=0):
    arch = ArchitectureDescriptor((h, w, 1), classes, (Dense("d1", 8), Dense("out", classes)))
    return build_model(arch, seed=seed)


def pixel_model():
    """One-pixel model with a known input gradient sign."""
    arch = ArchitectureDescriptor((1, 1, 1), 2, (Dense("out", 2),))
    params = {
        "out.w": np.array([[4.0, -4.0]], dtype=np.float32),
        "out.b": np.zeros(2, dtype=np.float32),
    }
    return ModelState(arch, params)


def test_epsilon_zero_is_identity():
    m = small_model()
    data = random_dataset(50)
    out = fgsm(m, data.images, data.labels, 0.0)
    assert np.array_equal(out, data.images)


def test_sup_norm_bound_and_range():
    m = small_model()
    data = random_dataset(200)
    for eps in (0.05, 0.1):
        out = fgsm(m, data.images, data.labels, eps)
        assert np.max(np.abs(out - data.images)) <= eps + 1e-7
        assert out.min() >= 0.0 and out.max() <= 1.0


def test_pixel_case_with_finite_difference_sign():
    # loss gradient at label 0 pushes the pixel down for this model, so the
    # attack raises it; verify the sign against central differences first.
    m = pixel_model()
    x = np.array([[[0.5]]], dtype=np.float32)
    h = 1e-3

    def loss_at(v):
        from guidedretrain.autodiff import forward_eval
        img = np.array([[[v]]], dtype=np.float32)
        return forward_eval(m.graph(), img, labels=0).loss

    fd = (loss_at(0.5 + h) - loss_at(0.5 - h)) / (2 * h)
    assert fd < 0
    out = fgsm(m, x, 0, 0.1)
    assert out[0, 0, 0] == pytest.approx(0.4, abs=1e-6)


def test_clipping_at_upper_bound():
    m = pixel_model()
    # label 1: gradient sign flips, pixel pushed up, clipped at 1.0
    x = np.array([[[0.95]]], dtype=np.float32)
    out = fgsm(m, x, 1, 0.1)
    assert out[0, 0, 0] == 1.0


def test_single_input_shape_round_trip():
    m = small_model()
    x = random_dataset(1).images[0]
    out = fgsm(m, x, 2, 0.1)
    assert out.shape == x.shape


def test_fgsm_rejects_epsilon_out_of_range():
    m = small_model()
    data = random_dataset(3)
    for eps in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError, match="epsilon must be in"):
            fgsm(m, data.images, data.labels, eps)
        with pytest.raises(ValueError, match="epsilon must be in"):
            build_augmented_sets(m, data, data, 0.5, eps, seed=1)


def test_select_sources_deterministic():
    a = select_attack_sources(1000, 0.25, seed=5)
    b = select_attack_sources(1000, 0.25, seed=5)
    c = select_attack_sources(1000, 0.25, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert len(a) == 250
    assert len(set(a.tolist())) == 250


def test_adv_train_full_fraction():
    m = small_model()
    data = random_dataset(30)
    sets = build_augmented_sets(m, data, data, fraction=1.0, epsilon=0.1, seed=1)
    assert len(sets.adv_train) == len(data)


def test_large_corpus_selection_counts():
    # 31366 train inputs with fraction 5000/31366 selects exactly 5000,
    # so Train* carries 36366 rows
    n = 31366
    sources = select_attack_sources(n, 5000 / n, seed=3)
    assert len(sources) == 5000
    assert n + len(sources) == 36366


def test_medium_corpus_selection_counts():
    n = 11224
    sources = select_attack_sources(n, 3000 / n, seed=3)
    assert len(sources) == 3000
    assert n + len(sources) == 14224


def test_augmented_sets_shapes_and_provenance():
    m = small_model()
    train = random_dataset(60, seed=1)
    test = random_dataset(25, seed=2)
    epsilon = 0.1
    sets = build_augmented_sets(m, train, test, fraction=0.5, epsilon=epsilon, seed=9)

    assert len(sets.adv_train) == 30
    assert len(sets.train_star) == 90
    assert len(sets.adv_test) == len(test)
    assert len(sets.test_star) == 2 * len(test)

    # origin flags: originals first, adversarial rows after
    assert not sets.train_star_is_adversarial[:60].any()
    assert sets.train_star_is_adversarial[60:].all()
    assert not sets.test_star_is_adversarial[:25].any()
    assert sets.test_star_is_adversarial[25:].all()

    # provenance: Train* row 60 + j is the attack of training row
    # train_sources[j], a bijection onto the selected sources
    assert len(sets.train_sources) == 30
    assert len(set(sets.train_sources.tolist())) == 30
    for j, src_row in enumerate(sets.train_sources):
        adv_row = 60 + j
        assert sets.train_star_is_adversarial[adv_row]
        assert sets.train_star.labels[adv_row] == train.labels[src_row]
        dist = np.max(np.abs(sets.train_star.images[adv_row] - train.images[src_row]))
        assert dist <= epsilon + 1e-7

    # Test* row 25 + j is the attack of test row j
    assert len(sets.test_star) - 25 == len(test)
    for src_row in range(len(test)):
        adv_row = 25 + src_row
        dist = np.max(np.abs(sets.test_star.images[adv_row] - test.images[src_row]))
        assert dist <= epsilon + 1e-7


def test_augmented_sets_deterministic():
    m = small_model()
    train = random_dataset(40, seed=1)
    test = random_dataset(10, seed=2)
    a = build_augmented_sets(m, train, test, 0.25, 0.05, seed=4)
    b = build_augmented_sets(m, train, test, 0.25, 0.05, seed=4)
    assert np.array_equal(a.train_star.images, b.train_star.images)
    assert np.array_equal(a.test_star.images, b.test_star.images)
    assert np.array_equal(a.train_sources, b.train_sources)


def test_batching_does_not_change_attack():
    m = small_model()
    data = random_dataset(33)
    a = fgsm(m, data.images, data.labels, 0.1, batch_size=256)
    b = fgsm(m, data.images, data.labels, 0.1, batch_size=7)
    assert np.array_equal(a, b)


def test_fgsm_rejects_non_finite_gradient():
    # weights large enough to overflow float32 through two dense layers
    arch = ArchitectureDescriptor(
        (2, 2, 1), 2,
        (Dense("d1", 4), Dense("out", 2)),
    )
    params = {
        "d1.w": np.full((4, 4), 1e25, dtype=np.float32),
        "d1.b": np.zeros(4, dtype=np.float32),
        "out.w": np.full((4, 2), 1e25, dtype=np.float32) * np.array([1.0, -1.0], dtype=np.float32),
        "out.b": np.zeros(2, dtype=np.float32),
    }
    m = ModelState(arch, params)
    x = np.full((1, 2, 2, 1), 0.5, dtype=np.float32)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError):
            fgsm(m, x, [0], 0.1)
