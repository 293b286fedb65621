import numpy as np
import pytest

from guidedretrain.data import (
    IDX_IMAGES_MAGIC,
    IDX_LABELS_MAGIC,
    IdxBadMagicError,
    IdxCountMismatchError,
    IdxTruncatedError,
    class_pattern,
    generate_synthetic,
    load_idx_dataset,
    save_idx_dataset,
)


def write_idx_images(path, arrays):
    n = len(arrays)
    h, w = arrays[0].shape
    with open(path, "wb") as fh:
        fh.write(IDX_IMAGES_MAGIC.to_bytes(4, "big"))
        for dim in (n, h, w):
            fh.write(dim.to_bytes(4, "big"))
        for a in arrays:
            fh.write(a.astype(np.uint8).tobytes())


def write_idx_labels(path, labels):
    with open(path, "wb") as fh:
        fh.write(IDX_LABELS_MAGIC.to_bytes(4, "big"))
        fh.write(len(labels).to_bytes(4, "big"))
        fh.write(bytes(labels))


def test_load_idx_golden(tmp_path):
    img0 = np.arange(9, dtype=np.uint8).reshape(3, 3)
    img1 = np.full((3, 3), 255, dtype=np.uint8)
    images_path = tmp_path / "imgs"
    labels_path = tmp_path / "labels"
    write_idx_images(images_path, [img0, img1])
    write_idx_labels(labels_path, [0, 1])
    data = load_idx_dataset(images_path, labels_path)
    assert data.images.shape == (2, 3, 3, 1)
    assert data.images[1, 0, 0, 0] == 1.0  # byte 255 -> 1.0
    assert data.images[0, 0, 1, 0] == np.float32(1.0 / 255.0)
    assert data.labels.tolist() == [0, 1]
    assert data.class_count == 2


def test_load_idx_bad_magic(tmp_path):
    images_path = tmp_path / "imgs"
    labels_path = tmp_path / "labels"
    write_idx_images(images_path, [np.zeros((2, 2), dtype=np.uint8)])
    write_idx_labels(labels_path, [0])
    raw = images_path.read_bytes()
    images_path.write_bytes(b"\x00\x00\x09\x99" + raw[4:])
    with pytest.raises(IdxBadMagicError):
        load_idx_dataset(images_path, labels_path)


def test_load_idx_count_mismatch(tmp_path):
    images_path = tmp_path / "imgs"
    labels_path = tmp_path / "labels"
    write_idx_images(images_path, [np.zeros((2, 2), dtype=np.uint8)] * 3)
    write_idx_labels(labels_path, [0, 1])
    with pytest.raises(IdxCountMismatchError):
        load_idx_dataset(images_path, labels_path)


def test_load_idx_truncated(tmp_path):
    images_path = tmp_path / "imgs"
    labels_path = tmp_path / "labels"
    write_idx_images(images_path, [np.zeros((2, 2), dtype=np.uint8)])
    write_idx_labels(labels_path, [0])
    images_path.write_bytes(images_path.read_bytes()[:-1])
    with pytest.raises(IdxTruncatedError):
        load_idx_dataset(images_path, labels_path)


def test_load_idx_label_out_of_range_names_the_row(tmp_path):
    images_path = tmp_path / "imgs"
    labels_path = tmp_path / "labels"
    write_idx_images(images_path, [np.zeros((2, 2), dtype=np.uint8)] * 4)
    write_idx_labels(labels_path, [0, 3, 4, 5])
    with pytest.raises(ValueError, match="^row 2 has label 4, out of range for class_count 4$"):
        load_idx_dataset(images_path, labels_path, class_count=4)


def test_idx_round_trip(tmp_path):
    data = generate_synthetic(classes=3, per_class=4, image_size=8, noise_sigma=0.1, seed=2)
    save_idx_dataset(data, tmp_path / "imgs", tmp_path / "labels")
    again = load_idx_dataset(tmp_path / "imgs", tmp_path / "labels", class_count=3)
    assert len(again) == len(data)
    assert np.array_equal(again.labels, data.labels)
    # quantization to 256 levels bounds the round-trip error
    assert np.max(np.abs(again.images - data.images)) <= 0.5 / 255.0 + 1e-7


def test_synthetic_deterministic():
    a = generate_synthetic(seed=42)
    b = generate_synthetic(seed=42)
    c = generate_synthetic(seed=43)
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.images, c.images)


def test_synthetic_class0_exact_stripes():
    data = generate_synthetic(classes=4, per_class=2, image_size=6, noise_sigma=0.0, seed=0)
    img = data.images[0, :, :, 0]  # image 0 has class 0
    assert data.labels[0] == 0
    for row in range(6):
        expected = 1.0 if row % 2 == 0 else 0.0
        assert np.all(img[row] == expected), row


def test_synthetic_patterns_distinct():
    size = 8
    pats = [class_pattern(c, size) for c in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not np.allclose(pats[i], pats[j])


def test_synthetic_labels_interleave():
    data = generate_synthetic(classes=3, per_class=5, image_size=8, noise_sigma=0.0)
    assert data.labels.tolist() == [i % 3 for i in range(15)]


def test_synthetic_values_in_range():
    data = generate_synthetic(classes=4, per_class=10, noise_sigma=0.5, seed=9)
    assert data.images.min() >= 0.0
    assert data.images.max() <= 1.0


def test_synthetic_validation():
    with pytest.raises(ValueError):
        generate_synthetic(noise_sigma=-0.1)
    with pytest.raises(ValueError, match="nan"):
        generate_synthetic(noise_sigma=float("nan"))
    with pytest.raises(ValueError):
        generate_synthetic(per_class=0)
    with pytest.raises(ValueError):
        generate_synthetic(classes=5)
