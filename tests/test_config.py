import re
from dataclasses import fields

import pytest

from guidedretrain import config
from guidedretrain.config import (
    ConfigError,
    ExperimentConfig,
    config_echo,
    parse_config,
    with_overrides,
)


def assert_rejected(key, field, values):
    """Each value fails both in a config file and as an override, naming `key`."""
    for text, value in values:
        with pytest.raises(ConfigError, match=re.escape(key)):
            parse_config(f"{key} = {text}")
        with pytest.raises(ConfigError, match=re.escape(key)):
            with_overrides(ExperimentConfig(), **{field: value})


def assert_accepted(key, field, values):
    for text, value in values:
        assert getattr(parse_config(f"{key} = {text}"), field) == value
        assert getattr(with_overrides(ExperimentConfig(), **{field: value}), field) == value


@pytest.mark.parametrize("stage", ["train", "retrain"])
def test_lr_must_be_positive(stage):
    assert_rejected(f"{stage}.lr", f"{stage}_lr",
                    [("0", 0.0), ("-0.01", -0.01), ("nan", float("nan"))])
    assert_accepted(f"{stage}.lr", f"{stage}_lr", [("1e-6", 1e-6)])


@pytest.mark.parametrize("stage", ["train", "retrain"])
def test_momentum_in_unit_interval(stage):
    assert_rejected(f"{stage}.momentum", f"{stage}_momentum",
                    [("-0.1", -0.1), ("1", 1.0), ("1.5", 1.5)])
    assert_accepted(f"{stage}.momentum", f"{stage}_momentum", [("0", 0.0), ("0.99", 0.99)])


@pytest.mark.parametrize("stage", ["train", "retrain"])
def test_batch_size_at_least_one(stage):
    assert_rejected(f"{stage}.batch_size", f"{stage}_batch_size", [("0", 0), ("-4", -4)])
    assert_accepted(f"{stage}.batch_size", f"{stage}_batch_size", [("1", 1)])


@pytest.mark.parametrize("stage", ["train", "retrain"])
def test_epochs_non_negative(stage):
    assert_rejected(f"{stage}.epochs", f"{stage}_epochs", [("-1", -1)])
    assert_accepted(f"{stage}.epochs", f"{stage}_epochs", [("0", 0)])


def test_epsilon_in_closed_unit_interval():
    assert_rejected("attack.epsilon", "attack_epsilon", [("-0.01", -0.01), ("1.01", 1.01)])
    assert_accepted("attack.epsilon", "attack_epsilon", [("0", 0.0), ("1", 1.0)])


def test_fraction_in_half_open_unit_interval():
    assert_rejected("attack.fraction", "attack_fraction", [("0", 0.0), ("1.5", 1.5)])
    assert_accepted("attack.fraction", "attack_fraction", [("1", 1.0)])


def test_nc_threshold_in_closed_unit_interval():
    assert_rejected("nc.threshold", "nc_threshold", [("-0.5", -0.5), ("2", 2.0)])
    assert_accepted("nc.threshold", "nc_threshold", [("0", 0.0), ("1", 1.0)])


FLOAT_FIELDS = [f.name for f in fields(ExperimentConfig) if f.type == "float"]


@pytest.mark.parametrize("field", FLOAT_FIELDS)
def test_non_finite_floats_rejected(field):
    key = config._key(field)
    assert_rejected(key, field, [("nan", float("nan")), ("inf", float("inf")),
                                 ("-inf", float("-inf"))])


def test_float_fields_are_the_expected_nine():
    assert FLOAT_FIELDS == [
        "synthetic_noise_sigma", "train_lr", "train_momentum", "retrain_lr", "retrain_momentum",
        "attack_epsilon", "attack_fraction", "nc_threshold", "lsa_variance_threshold"]


def test_noise_sigma_non_negative():
    assert_rejected("synthetic.noise_sigma", "synthetic_noise_sigma", [("-0.1", -0.1)])
    assert_accepted("synthetic.noise_sigma", "synthetic_noise_sigma", [("0", 0.0)])


def test_duplicate_metrics_rejected():
    assert_rejected("metrics", "metrics", [("LSA, nc, lsa", ("LSA", "NC", "LSA"))])


def test_duplicate_configs_rejected():
    assert_rejected("configs", "configs", [("C2,c2", ("C2", "C2"))])


# config_echo of the default config: every key, sorted, with its default
DEFAULT_ECHO = [
    "attack.epsilon = 0.1",
    "attack.fraction = 0.16",
    "configs = C1,C2,C3",
    "dataset = synthetic",
    "dsa.layers = ",
    "idx.test_images = ",
    "idx.test_labels = ",
    "idx.train_images = ",
    "idx.train_labels = ",
    "lsa.layer = ",
    "lsa.variance_threshold = 1e-05",
    "metrics = LSA,DSA,NC,RANDOM",
    "nc.threshold = 0.5",
    "out = out",
    "retrain.batch_size = 32",
    "retrain.epochs = 5",
    "retrain.lr = 0.01",
    "retrain.momentum = 0.9",
    "seed.attack = 33",
    "seed.init = 11",
    "seed.random_metric = 44",
    "seed.shuffle = 22",
    "synthetic.classes = 4",
    "synthetic.image_size = 16",
    "synthetic.noise_sigma = 1.0",
    "synthetic.per_class_test = 125",
    "synthetic.per_class_train = 500",
    "synthetic.seed = 1234",
    "train.batch_size = 32",
    "train.epochs = 20",
    "train.lr = 0.01",
    "train.momentum = 0.9",
]


def test_keys_and_default_echo_are_pinned():
    assert sorted(config._KEYS) == [line.split(" = ", 1)[0] for line in DEFAULT_ECHO]
    assert config_echo(ExperimentConfig()) == DEFAULT_ECHO


def test_echo_parses_back_to_the_same_config():
    changed = ExperimentConfig(
        dataset="idx", synthetic_classes=3, synthetic_per_class_train=7,
        synthetic_per_class_test=5, synthetic_image_size=12, synthetic_noise_sigma=0.25,
        synthetic_seed=99, idx_train_images="a-images", idx_train_labels="a-labels",
        idx_test_images="b-images", idx_test_labels="b-labels", train_epochs=2,
        train_batch_size=8, train_lr=0.5, train_momentum=0.0, retrain_epochs=3,
        retrain_batch_size=4, retrain_lr=1e-07, retrain_momentum=0.5, attack_epsilon=0.3,
        attack_fraction=1.0, nc_threshold=0.75, lsa_layer="dense1",
        lsa_variance_threshold=2e-06, dsa_layers="conv1,dense1", metrics=("NC", "DSA"),
        configs=("C3", "C1"), seed_init=1, seed_shuffle=2, seed_attack=3,
        seed_random_metric=4, out="elsewhere")
    defaults = ExperimentConfig()
    assert [f.name for f in fields(ExperimentConfig)
            if getattr(changed, f.name) == getattr(defaults, f.name)] == []
    for cfg in (defaults, changed):
        assert parse_config("\n".join(config_echo(cfg))) == cfg
