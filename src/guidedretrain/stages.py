"""The stage spine: data, M, the augmented sets, the scores and the points of a run.

`run`, each stage command and each seed of the trend report hold one
`Spine`: the config, M, M's fingerprint chain, the augmented sets and the
points, each read or built when first used. Its links are files in <out>:

  model.grcnn  the original model M
  sets.npz     Train*/Test* float32 images and labels, plus the attack's
               source row of each Adv-Train row
  scores.npz   each metric's raw float64 scores over Train* and its seconds
  points.npz   per sweep pair, each point's input size, three accuracies and
               wall seconds, and the sweep's pool total

`fingerprints` computes the chain, and only this module computes a
fingerprint. Each is a sha256 over a format tag, the canonical config lines
its artifact depends on, and the link before it: the sets' covers the bytes
of M's model file (and of the IDX files), the scores' covers the sets' and
names the LSA and DSA layers that metrics.guidance_layers resolves on M's
architecture, the layers the scoring reads, and the points' covers the
scores'. A stage loads an artifact whose fingerprint matches, without
unpickling, and rebuilds one that is missing, unreadable or stale: it
writes the new file through a temporary one and notes on stderr why it
rebuilt it. scores.npz holds an entry per metric, points.npz one per sweep
pair; a stage adds those a fresh file lacks, but `report` never retrains.
The stages that write CSV files are in reports.py.
"""

from __future__ import annotations

import hashlib
import os
import sys
import zipfile
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .attack import AugmentedSets, attack_count, build_augmented_sets
from .config import ExperimentConfig, config_echo
from .data import IdxFormatError, generate_synthetic, load_idx_dataset
from .metrics import guidance_layers, score_metrics
from .model import (
    Dataset,
    ModelState,
    TrainParams,
    accuracy,
    build_model,
    desk_architecture,
    load_model,
    model_bytes,
    save_model,
    trace_columns,
    train,
)
from .retrain import (
    SWEEP_POINTS,
    ExperimentRecord,
    RetrainBatch,
    RetrainRun,
    run_experiments,
    sweep_pool_size,
)

MODEL_FILE = "model.grcnn"
SETS_FILE = "sets.npz"
SCORES_FILE = "scores.npz"
POINTS_FILE = "points.npz"

# config keys each artifact depends on; a key ending in "." names its section
_SETS_KEYS = ("dataset", "synthetic.", "idx.", "attack.epsilon", "attack.fraction",
              "seed.attack")
_SCORES_KEYS = ("nc.threshold", "lsa.variance_threshold", "seed.random_metric")
_POINTS_KEYS = ("retrain.", "seed.init", "seed.shuffle")
_IDX_KEYS = ("idx.train_images", "idx.train_labels", "idx.test_images", "idx.test_labels")


def sweep_pairs(cfg: ExperimentConfig) -> list[tuple[str, str]]:
    """The (configuration, metric) pairs of a run's sweeps, in record order."""
    return [(kind, metric) for kind in cfg.configs for metric in cfg.metrics]


def prepare_data(cfg: ExperimentConfig):
    """(train, test) datasets; a config whose IDX test images differ in shape
    from its training images, whose sweep pools would be too small, or whose
    SA metrics name a layer without neurons, is refused here, before M is
    trained."""
    if cfg.dataset == "synthetic":
        train_set = generate_synthetic(cfg.synthetic_classes, cfg.synthetic_per_class_train,
                                       cfg.synthetic_image_size, cfg.synthetic_noise_sigma,
                                       seed=cfg.synthetic_seed)
        test_set = generate_synthetic(cfg.synthetic_classes, cfg.synthetic_per_class_test,
                                      cfg.synthetic_image_size, cfg.synthetic_noise_sigma,
                                      seed=cfg.synthetic_seed + 1)
    else:
        train_set = load_idx_dataset(cfg.idx_train_images, cfg.idx_train_labels)
        try:
            test_set = load_idx_dataset(cfg.idx_test_images, cfg.idx_test_labels,
                                        class_count=train_set.class_count)
        except IdxFormatError:
            raise
        except ValueError as err:  # a test label beyond the training set's classes
            raise ValueError(f"idx.test_labels ({cfg.idx_test_labels}): {err}") from None
        if test_set.images.shape[1:] != train_set.images.shape[1:]:
            raise ValueError(f"idx.test_images ({cfg.idx_test_images}): images are "
                             f"{test_set.images.shape[1:]}, the training images "
                             f"{train_set.images.shape[1:]}")
    adversarial = attack_count(len(train_set), cfg.attack_fraction)
    for kind, metric in sweep_pairs(cfg):
        sweep_pool_size(kind, metric, len(train_set), adversarial)
    arch = architecture_for(cfg, train_set)
    layers = guidance_layers(cfg, arch)
    for metric, key in (("LSA", "lsa.layer"), ("DSA", "dsa.layers")):
        if metric not in cfg.metrics:
            continue
        for name in layers[key]:
            try:
                trace_columns(arch, [name])
            except KeyError as e:
                raise ValueError(f"{key} names {name!r}: {e.args[0]}; the neuron layers are "
                                 f"{', '.join(arch.neuron_layers())}") from None
    return train_set, test_set


def architecture_for(cfg: ExperimentConfig, data: Dataset):
    h, w, c = data.images.shape[1:]
    return desk_architecture(input_shape=(h, w, c), classes=data.class_count)


def train_original(cfg: ExperimentConfig, train_set: Dataset) -> ModelState:
    model = build_model(architecture_for(cfg, train_set), seed=cfg.seed_init)
    return train(model, train_set, TrainParams(
        epochs=cfg.train_epochs, batch_size=cfg.train_batch_size,
        lr=cfg.train_lr, momentum=cfg.train_momentum, shuffle_seed=cfg.seed_shuffle))


def retrain_hp(cfg: ExperimentConfig) -> TrainParams:
    return TrainParams(
        epochs=cfg.retrain_epochs, batch_size=cfg.retrain_batch_size,
        lr=cfg.retrain_lr, momentum=cfg.retrain_momentum, shuffle_seed=cfg.seed_shuffle)


# ------------------------------------------------------------- fingerprints


def _fingerprint(tag: str, cfg: ExperimentConfig, keys, digests) -> str:
    """sha256 over the tag, the given digest lines and the config_echo lines of `keys`."""
    lines = [tag, *digests]
    for line in config_echo(cfg):
        key = line.split(" = ", 1)[0]
        if any(key.startswith(k) if k.endswith(".") else key == k for k in keys):
            lines.append(line)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


class Fingerprints(NamedTuple):
    """The fingerprint chain of a run's derived artifacts."""

    sets: str
    scores: str
    points: str


def fingerprints(cfg: ExperimentConfig, model: ModelState) -> Fingerprints:
    """The fingerprints of the sets, scores and points that `cfg` and M
    determine; each covers the one before it."""
    digests = [f"model sha256 = {hashlib.sha256(model_bytes(model)).hexdigest()}"]
    if cfg.dataset == "idx":
        for key in _IDX_KEYS:
            path = getattr(cfg, key.replace(".", "_"))
            digests.append(f"{key} sha256 = {hashlib.sha256(Path(path).read_bytes()).hexdigest()}")
    sets = _fingerprint("guidedretrain sets v2", cfg, _SETS_KEYS, digests)
    layers = guidance_layers(cfg, model.architecture)
    scores = _fingerprint("guidedretrain scores v2", cfg, _SCORES_KEYS,
                          [f"sets = {sets}", *(f"{key} = {','.join(names)}"
                                               for key, names in layers.items())])
    points = _fingerprint("guidedretrain points v2", cfg, _POINTS_KEYS, [f"scores = {scores}"])
    return Fingerprints(sets, scores, points)


# ------------------------------------------------------------- artifact files


def _load(path: Path, fingerprint: str, parse):
    """(parse(arrays), None) for a fresh artifact, else (None, why it is not)."""
    if not path.exists():
        return None, "missing"
    try:
        with np.load(path, allow_pickle=False) as arrays:
            if str(arrays["fingerprint"]) != fingerprint:
                return None, "stale fingerprint"
            return parse(arrays), None
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
        return None, f"unreadable: {type(exc).__name__}: {exc}"


def _save(path: Path, fingerprint: str, arrays: dict, why: str) -> None:
    """Write the artifact through a temporary file and note why on stderr."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, fingerprint=np.array(fingerprint), **arrays)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    print(f"rebuilt {path} ({why})", file=sys.stderr)


def _sets_from_arrays(arrays) -> AugmentedSets:
    classes = int(arrays["class_count"])
    return AugmentedSets(
        train_star=Dataset(arrays["train_images"], arrays["train_labels"], classes),
        test_star=Dataset(arrays["test_images"], arrays["test_labels"], classes),
        train_sources=arrays["train_sources"],
    )


def _entries(path: Path, fingerprint: str, fields: dict, entries, build=None) -> tuple:
    """({entry: (array per field)}, why the file was rebuilt) of an .npz of
    arrays named <field>_<entry>, each of the (dtype, shape) `fields` gives
    its field, or the file is unreadable. build(lacked) gives {entry: (value
    per field)} of the entries a fresh file lacks, saved beside what it held;
    without `build`, (None, why) unless it lacks none."""
    def read(arrays) -> dict:
        held = {name: arrays[name] for name in arrays.files if name != "fingerprint"}
        for entry in entries:
            for field, (dtype, shape) in fields.items():
                values = held.get(f"{field}_{entry}")
                if values is not None and (values.dtype, values.shape) != (dtype, shape):
                    raise ValueError(f"{field}_{entry} is {values.dtype} {values.shape}, "
                                     f"expected {np.dtype(dtype)} {shape}")
        return held

    held, why = _load(path, fingerprint, read)
    held = held or {}
    lacked = [entry for entry in entries if any(f"{field}_{entry}" not in held for field in fields)]
    if lacked:
        why = why or f"lacked {', '.join(lacked)}"
        if build is None:
            return None, why
        for entry, values in build(lacked).items():
            held.update({f"{field}_{entry}": np.asarray(value, dtype)
                         for (field, (dtype, _)), value in zip(fields.items(), values)})
        _save(path, fingerprint, held, why)
    return {entry: tuple(held[f"{field}_{entry}"] for field in fields) for entry in entries}, why


# points.npz: per sweep pair <configuration>_<metric>, an array of its points
# per stored RetrainRun field, then its pool_total
_RUN_FIELDS = ("input_size", "accuracy_test_star", "accuracy_test", "accuracy_adv_test",
               "wall_seconds")
_POINT_FIELDS = {**{name: (np.float64, (SWEEP_POINTS,)) for name in _RUN_FIELDS},
                 "input_size": (np.int64, (SWEEP_POINTS,)), "pool_total": (np.int64, ())}


def _record(entry: str, values) -> ExperimentRecord:
    kind, metric = entry.split("_")
    *columns, total = (array.tolist() for array in values)
    return ExperimentRecord(kind, metric, tuple(
        RetrainRun(kind, metric, i, **dict(zip(_RUN_FIELDS, point)))
        for i, point in enumerate(zip(*columns))), total)


# ------------------------------------------------------------- the spine


@dataclass
class Spine:
    """One run's chain in <out>: the config, M, M's fingerprints, the
    augmented sets, the scores and the points, each read or built the first
    time it is used. The data are prepared at most once; M is loaded from
    model.grcnn, or trained when that is absent; the other links are read
    from their .npz files when fresh, and what they lack is built and saved."""

    cfg: ExperimentConfig

    @property
    def out(self) -> Path:
        return Path(self.cfg.out)

    @cached_property
    def data(self) -> tuple[Dataset, Dataset]:
        """(train, test); see prepare_data."""
        return prepare_data(self.cfg)

    @cached_property
    def model(self) -> ModelState:
        path = self.out / MODEL_FILE
        return load_model(path) if path.exists() else self.train()

    def train(self) -> ModelState:
        """M trained on Train and saved to <out>/model.grcnn. It is the
        spine's M from here on, so train before the fingerprints are used."""
        self.out.mkdir(parents=True, exist_ok=True)
        self.model = train_original(self.cfg, self.data[0])
        save_model(self.model, self.out / MODEL_FILE)
        return self.model

    @cached_property
    def fingerprints(self) -> Fingerprints:
        return fingerprints(self.cfg, self.model)

    @cached_property
    def sets(self) -> AugmentedSets:
        path = self.out / SETS_FILE
        sets, why = _load(path, self.fingerprints.sets, _sets_from_arrays)
        if sets is None:
            train_set, test_set = self.data
            sets = build_augmented_sets(self.model, train_set, test_set, self.cfg.attack_fraction,
                                        self.cfg.attack_epsilon, seed=self.cfg.seed_attack)
            _save(path, self.fingerprints.sets, {
                "class_count": np.array(sets.train_star.class_count),
                "train_images": sets.train_star.images,
                "train_labels": sets.train_star.labels,
                "train_sources": sets.train_sources,
                "test_images": sets.test_star.images,
                "test_labels": sets.test_star.labels,
            }, why)
        return sets

    @cached_property
    def original_accuracy(self) -> float:
        """M's accuracy on Test*."""
        return accuracy(self.model, self.sets.test_star)

    @cached_property
    def scores(self) -> dict:
        """{metric: (values, seconds)} of the configured metrics over Train*,
        read from a fresh <out>/scores.npz, which gains the metrics it lacks."""
        train_star = self.sets.train_star
        fields = {"scores": (np.float64, (len(train_star),)), "seconds": (np.float64, ())}
        held, _ = _entries(self.out / SCORES_FILE, self.fingerprints.scores, fields, self.cfg.metrics,
                           lambda lacked: score_metrics(lacked, self.model, train_star, self.cfg))
        return {metric: (values, float(seconds)) for metric, (values, seconds) in held.items()}

    @cached_property
    def points(self) -> RetrainBatch:
        """The sweep of every configured (configuration, metric) pair in
        sweep_pairs order, read from a fresh <out>/points.npz, which gains the
        pairs it lacks: those the pool retrains, its records and its workers."""
        pool = RetrainBatch((), workers=0, worker_cpu_seconds=0.0)

        def retrain(lacked):
            nonlocal pool
            pool = run_experiments(self.model, self.sets, [entry.split("_") for entry in lacked],
                                   retrain_hp(self.cfg), self.scores,
                                   fresh_init_seed=self.cfg.seed_init + 1)  # C1 differs from M's init
            return {f"{rec.kind}_{rec.metric}": [*([getattr(r, name) for r in rec.runs]
                                                   for name in _RUN_FIELDS), rec.pool_total]
                    for rec in pool.records}

        held, _ = _entries(self.out / POINTS_FILE, self.fingerprints.points, _POINT_FIELDS,
                           self._pair_entries, retrain)
        retrained = {f"{rec.kind}_{rec.metric}": rec for rec in pool.records}
        return replace(pool, records=tuple(retrained.get(entry) or _record(entry, values)
                                           for entry, values in held.items()))

    @property
    def _pair_entries(self) -> list[str]:
        return [f"{kind}_{metric}" for kind, metric in sweep_pairs(self.cfg)]

    def stored_points(self) -> tuple:
        """(records, None) read back from a fresh <out>/points.npz holding every
        pair, else (None, why). A missing file is found before M is loaded."""
        path = self.out / POINTS_FILE
        if not path.exists():
            return None, "missing"
        held, why = _entries(path, self.fingerprints.points, _POINT_FIELDS, self._pair_entries)
        return held and tuple(_record(entry, values) for entry, values in held.items()), why
