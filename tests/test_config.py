import re

import pytest

from guidedretrain.config import ConfigError, ExperimentConfig, parse_config, with_overrides


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


def test_duplicate_metrics_rejected():
    assert_rejected("metrics", "metrics", [("LSA, nc, lsa", ("LSA", "NC", "LSA"))])


def test_duplicate_configs_rejected():
    assert_rejected("configs", "configs", [("C2,c2", ("C2", "C2"))])
