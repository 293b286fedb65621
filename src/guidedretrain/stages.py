"""The stage spine: data, M, the augmented sets, the scores and the points of a run.

`run`, each stage command and each seed of the trend report hold one
`Spine`: the config, the fingerprints, M, the augmented sets and the points,
each read or built when first used. Its links are files in <out>:

  model.grcnn  the original model M and its fingerprint lines
  sets.npz     Train*/Test* float32 images and labels, plus the attack's
               source row of each Adv-Train row
  scores.npz   per metric, its raw float64 scores over Train* and its seconds
  points.npz   per sweep pair, each point's input size, three accuracies and
               wall seconds, the sweep's pool total and M's accuracy on Test*

`fingerprints` gives each entry (M, the sets, each metric of scores.npz,
each <configuration>_<metric> pair of points.npz) its fingerprint from the
link table `_LINKS` and the config alone: text lines, stored with the
entry, that hold the lines of the entry it covers, its link's tag and its
link's config lines. M covers the IDX files by sha256. A stage loads,
without unpickling, each entry whose lines are equal, rebuilds the others
through a temporary file and names on stderr the first changed line.
`report` reads points.npz alone; reports.py holds the stages that write CSVs.
"""

from __future__ import annotations

import hashlib
import os
import sys
import zipfile
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .attack import AugmentedSets, attack_count, build_augmented_sets
from .config import ExperimentConfig, config_echo
from .data import IdxFormatError, generate_synthetic, load_idx_dataset
from .metrics import METRICS, guidance_layers, score_metrics
from .model import (
    Dataset,
    ModelState,
    TrainParams,
    build_model,
    desk_architecture,
    load_model,
    save_model,
    trace_columns,
    train,
)
from .retrain import (
    CONFIG_KINDS,
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

def pair_entries(cfg: ExperimentConfig) -> list[str]:
    """The <configuration>_<metric> pairs of a run's sweeps, in record order."""
    return [f"{kind}_{metric}" for kind in cfg.configs for metric in cfg.metrics]


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
    for entry in pair_entries(cfg):
        sweep_pool_size(*entry.split("_"), len(train_set), adversarial)
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

# each link's tag and the config keys it reads ("." ends a section; the SA
# layers as metrics.guidance_layers resolves them, which the scoring reads);
# the sets cover M, a metric the sets, a <configuration>_<metric> pair its metric
_LINKS = {
    "model": ("guidedretrain model v1", "dataset", "synthetic.", "idx.", "train.", "seed.init",
              "seed.shuffle"),
    "sets": ("guidedretrain sets v3", "attack.epsilon", "attack.fraction", "seed.attack"),
    "NC": ("guidedretrain NC v3", "nc.threshold"),
    "LSA": ("guidedretrain LSA v3", "lsa.layer", "lsa.variance_threshold"),
    "DSA": ("guidedretrain DSA v3", "dsa.layers"),
    "RANDOM": ("guidedretrain RANDOM v3", "seed.random_metric"),
    "pair": ("guidedretrain pair v4", "retrain."),
}


def fingerprints(cfg: ExperimentConfig) -> dict[str, tuple[str, ...]]:
    """{entry: fingerprint lines} of M, the sets, each metric and each
    <configuration>_<metric> pair, from `cfg` and its IDX files alone. The SA
    layers resolve on the desk CNN, whose layer names no data shape changes."""
    resolved = {key: f"{key} = {','.join(names)}"
                for key, names in guidance_layers(cfg, desk_architecture()).items()}
    echo = [resolved.get(line.split(" = ", 1)[0], line) for line in config_echo(cfg)]

    def link(name: str, covered) -> tuple[str, ...]:
        tag, *keys = _LINKS[name]
        keys = tuple(k if k.endswith(".") else f"{k} = " for k in keys)
        return (*covered, tag, *(line for line in echo if line.startswith(keys)))

    digests = [f"{key} sha256 = {hashlib.sha256(Path(path).read_bytes()).hexdigest()}"
               for key, path in (line.split(" = ", 1) for line in echo if line.startswith("idx."))
               if cfg.dataset == "idx"]
    lines = {"model": link("model", digests)}
    lines["sets"] = link("sets", lines["model"])
    for metric in METRICS:
        lines[metric] = link(metric, lines["sets"])
        lines.update({f"{kind}_{metric}": link("pair", lines[metric]) for kind in CONFIG_KINDS})
    return lines


def _change(stored, lines) -> str:
    """'' when the stored lines are `lines`, else the first change, "old -> new"."""
    return next((f"{old} -> {new}" for old, new in zip_longest(
        np.ravel(stored).tolist(), lines, fillvalue="(none)") if old != new), "")


# ------------------------------------------------------------- artifact files


def _load(path: Path, read, lines=None):
    """(value, None) when read(path) gives (value, the lines the artifact
    stores) and those are `lines`, when given; else (None, why not)."""
    if not path.exists():
        return None, "missing"
    try:
        value, stored = read(path)
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
        return None, f"unreadable: {type(exc).__name__}: {exc}"
    why = lines and _change(stored, lines)
    return (None, why) if why else (value, None)


def _save(path: Path, write, why: str) -> None:
    """write(a temporary path), moved to `path`; note why on stderr."""
    tmp = path.with_name(f"{path.stem}.{os.getpid()}.tmp{path.suffix}")  # np.savez keeps .npz
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    print(f"rebuilt {path} ({why})", file=sys.stderr)


def _read_sets(path: Path) -> tuple[AugmentedSets, np.ndarray]:
    with np.load(path, allow_pickle=False) as arrays:
        classes = int(arrays["class_count"])
        return AugmentedSets(
            train_star=Dataset(arrays["train_images"], arrays["train_labels"], classes),
            test_star=Dataset(arrays["test_images"], arrays["test_labels"], classes),
            train_sources=arrays["train_sources"],
        ), arrays["fingerprint"]


def _entries(path: Path, fields: dict, lines: dict, entries, build=None) -> tuple:
    """({entry: (array per field)}, why the file was rebuilt) of an .npz of
    arrays <field>_<entry> of the (dtype, shape) `fields` gives (else it is
    unreadable) and fingerprint_<entry>. An entry is stale when its stored
    fingerprint is not lines[entry], named by the first changed line, or when
    it or one of its arrays is missing; build(stale) gives {entry: (value per
    field)}, saved beside the fresh ones; else (None, why) if any is stale."""
    def read(path: Path) -> tuple[dict, None]:
        with np.load(path, allow_pickle=False) as arrays:
            held = {name: arrays[name] for name in arrays.files if name != "fingerprint"}
        for entry in entries:
            for field, (dtype, shape) in fields.items():
                values = held.get(f"{field}_{entry}")
                if values is not None and (values.dtype, values.shape) != (dtype, shape):
                    raise ValueError(f"{field}_{entry} is {values.dtype} {values.shape}, "
                                     f"expected {np.dtype(dtype)} {shape}")
        return held, None

    held, why = _load(path, read)
    held = held or {}

    def change(entry: str) -> str:
        stored = held.get(f"fingerprint_{entry}")
        why = "missing" if stored is None else _change(stored, lines[entry])
        return why or ("" if all(f"{field}_{entry}" in held for field in fields) else "missing")

    stale = {entry: what for entry in entries if (what := change(entry))}
    if stale:
        why = why or "; ".join(f"{', '.join(e for e in stale if stale[e] == what)} {what}"
                               for what in dict.fromkeys(stale.values()))
        if build is None:
            return None, why
        for entry, values in build(list(stale)).items():
            held.update({f"{field}_{entry}": np.asarray(value, dtype)
                         for (field, (dtype, _)), value in zip(fields.items(), values)})
            held[f"fingerprint_{entry}"] = np.array(lines[entry])
        _save(path, lambda tmp: np.savez(tmp, **held), why)
    return {entry: tuple(held[f"{field}_{entry}"] for field in fields) for entry in entries}, why


# points.npz: per sweep pair <configuration>_<metric>, an array of its points
# per stored RetrainRun field, then its pool_total and M's Test* accuracy
_RUN_FIELDS = ("input_size", "accuracy_test_star", "accuracy_test", "accuracy_adv_test",
               "wall_seconds")
_POINT_FIELDS = {**{name: (np.float64, (SWEEP_POINTS,)) for name in _RUN_FIELDS},
                 "input_size": (np.int64, (SWEEP_POINTS,)), "pool_total": (np.int64, ()),
                 "original_accuracy": (np.float64, ())}


def _record(entry: str, values) -> ExperimentRecord:
    kind, metric = entry.split("_")
    *columns, total, original_accuracy = (array.tolist() for array in values)
    return ExperimentRecord(kind, metric, tuple(
        RetrainRun(kind, metric, i, **dict(zip(_RUN_FIELDS, point)))
        for i, point in enumerate(zip(*columns))), total, original_accuracy)


# ------------------------------------------------------------- the spine


@dataclass
class Spine:
    """One run's chain in <out>: the config, the fingerprints, M, the sets,
    the scores and the points, each read from its file, or built and saved
    where stale, the first time it is used. The data are prepared at most once."""

    cfg: ExperimentConfig
    trained = False  # whether `model` trained M rather than loading it

    @property
    def out(self) -> Path:
        return Path(self.cfg.out)

    @cached_property
    def data(self) -> tuple[Dataset, Dataset]:
        """(train, test); see prepare_data."""
        return prepare_data(self.cfg)

    @cached_property
    def fingerprints(self) -> dict:
        return fingerprints(self.cfg)

    @cached_property
    def model(self) -> ModelState:
        """M, read from <out>/model.grcnn when the file holds the model
        entry's lines, else trained on Train and saved there with them."""
        path, lines = self.out / MODEL_FILE, self.fingerprints["model"]
        model, why = _load(path, load_model, lines)
        if model is None:
            model = train_original(self.cfg, self.data[0])
            self.trained = True
            self.out.mkdir(parents=True, exist_ok=True)
            _save(path, lambda tmp: save_model(model, tmp, lines), why)
        return model

    @cached_property
    def sets(self) -> AugmentedSets:
        path = self.out / SETS_FILE
        sets, why = _load(path, _read_sets, self.fingerprints["sets"])
        if sets is None:
            train_set, test_set = self.data
            sets = build_augmented_sets(self.model, train_set, test_set, self.cfg.attack_fraction,
                                        self.cfg.attack_epsilon, seed=self.cfg.seed_attack)
            _save(path, lambda tmp: np.savez(tmp, **{
                "fingerprint": np.array(self.fingerprints["sets"]),
                "class_count": np.array(sets.train_star.class_count),
                "train_images": sets.train_star.images,
                "train_labels": sets.train_star.labels,
                "train_sources": sets.train_sources,
                "test_images": sets.test_star.images,
                "test_labels": sets.test_star.labels,
            }), why)
        return sets

    @cached_property
    def scores(self) -> dict:
        """{metric: (values, seconds)} of the configured metrics over Train*,
        read from <out>/scores.npz, which gains the metrics it lacks fresh."""
        train_star = self.sets.train_star
        fields = {"scores": (np.float64, (len(train_star),)), "seconds": (np.float64, ())}
        held, _ = _entries(self.out / SCORES_FILE, fields, self.fingerprints, self.cfg.metrics,
                           lambda stale: score_metrics(stale, self.model, train_star, self.cfg))
        return {metric: (values, float(seconds)) for metric, (values, seconds) in held.items()}

    @cached_property
    def points(self) -> RetrainBatch:
        """The sweep of every configured pair in pair_entries order, made by
        _record from <out>/points.npz, which gains the pairs it lacks fresh;
        the workers and CPU seconds are the pool's (0 when none ran)."""
        pool = RetrainBatch((), workers=0, worker_cpu_seconds=0.0)

        def retrain(stale):
            nonlocal pool
            pool = run_experiments(self.model, self.sets, [entry.split("_") for entry in stale],
                                   retrain_hp(self.cfg), self.scores,
                                   fresh_init_seed=self.cfg.seed_init + 1)  # C1 differs from M's init
            return {f"{rec.kind}_{rec.metric}": [*([getattr(r, name) for r in rec.runs]
                                                   for name in _RUN_FIELDS),
                                                 rec.pool_total, rec.original_accuracy]
                    for rec in pool.records}

        held, _ = _entries(self.out / POINTS_FILE, _POINT_FIELDS, self.fingerprints,
                           pair_entries(self.cfg), retrain)
        return replace(pool, records=tuple(_record(e, values) for e, values in held.items()))

    def stored_points(self) -> tuple:
        """(records, None) read back from <out>/points.npz holding every pair
        fresh, else (None, why). Unless the spine has its points, they are
        these records, loaded by no worker, so `report` reads the file once."""
        held, why = _entries(self.out / POINTS_FILE, _POINT_FIELDS, self.fingerprints,
                             pair_entries(self.cfg))
        records = held and tuple(_record(entry, values) for entry, values in held.items())
        if records is not None:
            vars(self).setdefault("points", RetrainBatch(records, workers=0, worker_cpu_seconds=0.0))
        return records, why
