"""Dataset ingestion: IDX ubyte files and the deterministic synthetic set.

The synthetic dataset stands in for the full-size image benchmarks at desk
scale: four procedural 16x16 grayscale textures (horizontal stripes,
vertical stripes, checkerboard, centered blob) plus seeded Gaussian pixel
noise, clipped to [0, 1].
"""

from __future__ import annotations

import numpy as np

from .model import Dataset
from .rng import Pcg32

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """Base class for IDX file problems."""


class IdxBadMagicError(IdxFormatError):
    pass


class IdxCountMismatchError(IdxFormatError):
    pass


class IdxTruncatedError(IdxFormatError):
    pass


def _read_idx(path, magic: int, dims: int) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    header = 4 + 4 * dims
    if len(raw) < header:
        raise IdxTruncatedError(f"{path}: header truncated ({len(raw)} bytes)")
    got = int.from_bytes(raw[:4], "big")
    if got != magic:
        raise IdxBadMagicError(f"{path}: magic 0x{got:08x}, expected 0x{magic:08x}")
    shape = tuple(int.from_bytes(raw[4 + 4 * i:8 + 4 * i], "big") for i in range(dims))
    count = int(np.prod(shape))
    if len(raw) != header + count:
        raise IdxTruncatedError(
            f"{path}: payload is {len(raw) - header} bytes, expected {count}"
        )
    return np.frombuffer(raw, dtype=np.uint8, offset=header).reshape(shape)


def load_idx_dataset(images_path, labels_path, class_count: int | None = None) -> Dataset:
    """Parse IDX ubyte image/label files; pixels rescale to [0, 1] by /255."""
    images = _read_idx(images_path, IDX_IMAGES_MAGIC, dims=3)
    labels = _read_idx(labels_path, IDX_LABELS_MAGIC, dims=1)
    if len(images) != len(labels):
        raise IdxCountMismatchError(
            f"{len(images)} images but {len(labels)} labels"
        )
    if class_count is None:
        class_count = int(labels.max()) + 1
    return Dataset(
        (images.astype(np.float32) / 255.0)[..., None],
        labels.astype(np.int64),
        class_count=class_count,
    )


def save_idx_dataset(data: Dataset, images_path, labels_path) -> None:
    """Export as IDX ubyte (quantizes pixels to 256 levels); single channel only."""
    if data.images.shape[3] != 1:
        raise ValueError("IDX export supports single-channel images only")
    n, h, w, _ = data.images.shape
    pixels = np.clip(np.floor(data.images[..., 0] * 255.0 + 0.5), 0, 255).astype(np.uint8)
    with open(images_path, "wb") as fh:
        fh.write(IDX_IMAGES_MAGIC.to_bytes(4, "big"))
        for dim in (n, h, w):
            fh.write(dim.to_bytes(4, "big"))
        fh.write(pixels.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(IDX_LABELS_MAGIC.to_bytes(4, "big"))
        fh.write(n.to_bytes(4, "big"))
        fh.write(data.labels.astype(np.uint8).tobytes())


def class_pattern(cls: int, size: int) -> np.ndarray:
    """Noise-free base texture of one class, values in {0, 1} or [0, 1]."""
    rows = np.arange(size)
    cols = np.arange(size)
    if cls == 0:  # horizontal stripes, rows alternate 1.0 / 0.0
        return np.repeat((1.0 - rows % 2)[:, None], size, axis=1).astype(np.float64)
    if cls == 1:  # vertical stripes
        return np.repeat((1.0 - cols % 2)[None, :], size, axis=0).astype(np.float64)
    if cls == 2:  # checkerboard
        return ((rows[:, None] + cols[None, :]) % 2 == 0).astype(np.float64)
    if cls == 3:  # centered blob
        c = (size - 1) / 2.0
        r2 = (rows[:, None] - c) ** 2 + (cols[None, :] - c) ** 2
        return np.exp(-r2 / (2.0 * (size / 6.0) ** 2))
    raise ValueError(f"no pattern for class {cls}")


def generate_synthetic(classes: int = 4, per_class: int = 100, image_size: int = 16,
                       noise_sigma: float = 1.0, seed: int = 0) -> Dataset:
    """Deterministic procedural dataset; labels interleave (image i has class i % classes)."""
    if per_class < 1:
        raise ValueError("per_class must be >= 1")
    if not noise_sigma >= 0:  # NaN fails too
        raise ValueError(f"noise sigma must be non-negative, got {noise_sigma}")
    if not 2 <= classes <= 4:
        raise ValueError(f"supported class counts are 2..4, got {classes}")
    n = classes * per_class
    patterns = np.stack([class_pattern(c, image_size) for c in range(classes)])
    labels = np.arange(n, dtype=np.int64) % classes
    images = patterns[labels]
    if noise_sigma > 0:
        noise = Pcg32(seed).normals(n * image_size * image_size)
        images = images + noise_sigma * noise.reshape(n, image_size, image_size)
    images = np.clip(images, 0.0, 1.0).astype(np.float32)[..., None]
    return Dataset(images, labels, class_count=classes)
