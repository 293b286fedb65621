"""FGSM adversarial inputs and the augmented train/test sets built from them.

The attack is the one-shot sign method: x* = clip(x + eps * sign(dJ/dx)),
where J is the training cross-entropy at the input's true label. Train* and
Test* concatenate the originals with their adversarial counterparts in one
row layout (see AugmentedSets). There is no row-to-row provenance map: the
sets keep the training row behind each Adv-Train row, and the origin flags
follow from the layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .autodiff import backward_grads, forward_eval
from .model import INFERENCE_BATCH, Dataset, ModelState
from .rng import Pcg32


@dataclass(frozen=True)
class AugmentedSets:
    """Train* and Test* in their one row layout.

    Train* is the training set followed by Adv-Train: its row n + j is the
    FGSM image of training row train_sources[j], with that row's label. Test*
    is the test set followed by Adv-Test, the FGSM image of every test row in
    order. Adv-Train, Adv-Test and the origin flags are derived from that.
    """

    train_star: Dataset
    test_star: Dataset
    train_sources: np.ndarray  # int64: the training row of each Adv-Train row

    def __post_init__(self):
        sources, n = self.train_sources, self.train_clean
        if sources.dtype != np.int64 or sources.ndim != 1 or not 0 < len(sources) < len(self.train_star):
            raise ValueError(f"train_sources must be 1 to {len(self.train_star) - 1} int64 row ids, "
                             f"got {sources.dtype} {sources.shape}")
        labels = self.train_star.labels
        if sources.min() < 0 or sources.max() >= n or not np.array_equal(labels[n:], labels[sources]):
            raise ValueError(f"Adv-Train rows do not follow the {n} clean Train* rows")
        labels, half = self.test_star.labels, len(self.test_star) // 2
        if len(labels) % 2 or not np.array_equal(labels[:half], labels[half:]):
            raise ValueError(f"Test*'s {len(labels)} rows are not the test rows followed by their attacks")

    @property
    def train_clean(self) -> int:
        """Rows of Train* that come from the training set."""
        return len(self.train_star) - len(self.train_sources)

    @cached_property
    def adv_train(self) -> Dataset:
        return _rows_from(self.train_star, self.train_clean)

    @cached_property
    def adv_test(self) -> Dataset:
        return _rows_from(self.test_star, len(self.test_star) // 2)

    @cached_property
    def train_star_is_adversarial(self) -> np.ndarray:
        return np.arange(len(self.train_star)) >= self.train_clean

    @cached_property
    def test_star_is_adversarial(self) -> np.ndarray:
        return np.arange(len(self.test_star)) >= len(self.test_star) // 2


def _rows_from(star: Dataset, start: int) -> Dataset:
    return Dataset(star.images[start:], star.labels[start:], star.class_count)


def fgsm(model: ModelState, images: np.ndarray, labels, epsilon: float,
         batch_size: int = INFERENCE_BATCH) -> np.ndarray:
    """Adversarial counterpart(s) of `images` under the true `labels`.

    Accepts a single (H, W, C) input or a batch; returns the same shape.
    The output stays within epsilon (sup-norm) of the input and in the
    [0, 1] pixel range of a Dataset; epsilon = 0 returns the input bit-exactly.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    images = np.asarray(images, dtype=np.float32)
    single = images.shape == model.architecture.input_shape
    if single:
        images = images[None]
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    if epsilon == 0.0:
        out = images.copy()
        return out[0] if single else out
    graph = model.graph()
    out = np.empty_like(images)
    eps = np.float32(epsilon)
    for start in range(0, len(images), batch_size):
        x = images[start:start + batch_size]
        y = labels[start:start + batch_size]
        grads = backward_grads(forward_eval(graph, x, y))
        g = grads.input_grad
        if not np.all(np.isfinite(g)):
            raise FloatingPointError("non-finite input gradient during FGSM")
        out[start:start + len(x)] = np.clip(x + eps * np.sign(g), np.float32(0), np.float32(1))
    return out[0] if single else out


def attack_count(n: int, fraction: float) -> int:
    """round(fraction*n): the number of training rows the attack perturbs."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    k = int(np.floor(fraction * n + 0.5))
    if k < 1:
        raise ValueError(f"fraction {fraction} of {n} inputs selects nothing")
    return k


def select_attack_sources(n: int, fraction: float, seed: int) -> np.ndarray:
    """round(fraction*n) source indices, uniform without replacement, sorted."""
    return np.sort(Pcg32(seed).choice(n, attack_count(n, fraction)))


def build_augmented_sets(model: ModelState, train: Dataset, test: Dataset,
                         fraction: float, epsilon: float, seed: int) -> AugmentedSets:
    """Train* and Test*: the originals followed by their FGSM counterparts
    at `epsilon`, for round(fraction * n) training rows chosen by `seed`."""
    if train.class_count != test.class_count:
        raise ValueError("train and test disagree on class count")
    sources = select_attack_sources(len(train), fraction, seed)
    adv_train = fgsm(model, train.images[sources], train.labels[sources], epsilon)
    adv_test = fgsm(model, test.images, test.labels, epsilon)
    return AugmentedSets(
        train_star=Dataset(np.concatenate([train.images, adv_train]),
                           np.concatenate([train.labels, train.labels[sources]]),
                           train.class_count),
        test_star=Dataset(np.concatenate([test.images, adv_test]),
                          np.concatenate([test.labels, test.labels]), test.class_count),
        train_sources=sources.astype(np.int64),
    )
