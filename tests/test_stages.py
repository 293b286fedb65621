import pytest

from guidedretrain import metrics, stages
from guidedretrain.config import ExperimentConfig, with_overrides
from guidedretrain.data import generate_synthetic, save_idx_dataset
from guidedretrain.metrics import score_metrics
from guidedretrain.model import build_model, desk_architecture
from guidedretrain.stages import Fingerprints, fingerprints

MODEL = build_model(desk_architecture(input_shape=(8, 8, 1), classes=4), seed=3)
ARCH = MODEL.architecture
BASE = ExperimentConfig()

# (field, another value) of every config key the sets depend on
SETS_FIELDS = [
    ("dataset", "idx"), ("synthetic_classes", 3), ("synthetic_per_class_train", 7),
    ("synthetic_per_class_test", 7), ("synthetic_image_size", 9),
    ("synthetic_noise_sigma", 0.5), ("synthetic_seed", 1), ("attack_epsilon", 0.2),
    ("attack_fraction", 0.5), ("seed_attack", 34),
]
SCORES_FIELDS = [
    ("nc_threshold", 0.25), ("lsa_layer", "dense2"), ("lsa_variance_threshold", 1e-3),
    ("dsa_layers", "conv1"), ("seed_random_metric", 45),
]
POINTS_FIELDS = [
    ("retrain_epochs", 1), ("retrain_batch_size", 8), ("retrain_lr", 0.1),
    ("retrain_momentum", 0.5), ("seed_init", 12), ("seed_shuffle", 23),
]
NEITHER_FIELDS = [
    ("train_epochs", 1), ("train_lr", 0.1), ("retrain_epochs", 1), ("retrain_batch_size", 8),
    ("metrics", ("NC",)), ("configs", ("C3",)), ("seed_init", 12), ("seed_shuffle", 23),
    ("out", "elsewhere"),
]


def idx_config(tmp_path):
    data = generate_synthetic(4, 3, 8, 1.0, seed=5)
    paths = {}
    for part in ("train", "test"):
        paths[f"idx_{part}_images"] = tmp_path / f"{part}-images"
        paths[f"idx_{part}_labels"] = tmp_path / f"{part}-labels"
        save_idx_dataset(data, paths[f"idx_{part}_images"], paths[f"idx_{part}_labels"])
    return with_overrides(BASE, dataset="idx", **{k: str(v) for k, v in paths.items()}), paths


def overridden(tmp_path, field, value):
    """BASE with one key changed; "dataset" switches to IDX files under tmp_path."""
    if field == "dataset":
        return idx_config(tmp_path)[0]
    return with_overrides(BASE, **{field: value})


def test_fingerprints_keep_their_values():
    # existing <out> directories stay fresh only while these hold
    assert fingerprints(BASE, MODEL) == Fingerprints(
        sets="05ab23c913f8bed88aa764a6d0d5a415596673583fe527a05ce447d66a7f799f",
        scores="60ccbedecb73a5f69ac39677a88c6efe709ae2185db550639d738ba794f39945",
        points="d95f592e730800a2d549bc0d3d3809696c7a13b75d785be7a317e7f6646a746a",
    )


@pytest.mark.parametrize("field, value", SETS_FIELDS)
def test_sets_follow_every_sets_key(tmp_path, field, value):
    cfg = overridden(tmp_path, field, value)
    assert fingerprints(cfg, MODEL).sets != fingerprints(BASE, MODEL).sets


@pytest.mark.parametrize("field, value", SCORES_FIELDS)
def test_scores_follow_their_own_keys_and_sets_do_not(field, value):
    moved = fingerprints(with_overrides(BASE, **{field: value}), MODEL)
    base = fingerprints(BASE, MODEL)
    assert moved.sets == base.sets
    assert moved.scores != base.scores


@pytest.mark.parametrize("field, value", NEITHER_FIELDS)
def test_other_keys_leave_both_fingerprints(field, value):
    moved = fingerprints(with_overrides(BASE, **{field: value}), MODEL)
    base = fingerprints(BASE, MODEL)
    assert moved.sets == base.sets
    assert moved.scores == base.scores


@pytest.mark.parametrize("field, value", POINTS_FIELDS)
def test_points_follow_their_own_keys_and_scores_do_not(field, value):
    moved = fingerprints(with_overrides(BASE, **{field: value}), MODEL)
    base = fingerprints(BASE, MODEL)
    assert moved.scores == base.scores
    assert moved.points != base.points


# points.npz holds each sweep pair apart, so the pair lists leave its fingerprint
UNCHAINED_FIELDS = [("train_epochs", 1), ("out", "x"), ("metrics", ("NC",)), ("configs", ("C3",))]


@pytest.mark.parametrize("field, value",
                         SETS_FIELDS + SCORES_FIELDS + POINTS_FIELDS + UNCHAINED_FIELDS)
def test_points_follow_the_scores_and_no_other_key(tmp_path, field, value):
    # the points' fingerprint covers the scores', which covers the sets', so
    # it moves for every key of the chain
    cfg = overridden(tmp_path, field, value)
    moved = fingerprints(cfg, MODEL).points != fingerprints(BASE, MODEL).points
    assert moved == ((field, value) not in UNCHAINED_FIELDS)


def test_model_weights_and_sets_feed_the_fingerprints():
    # the same architecture, so the scores and points move through the sets
    other = fingerprints(BASE, build_model(MODEL.architecture, seed=4))
    base = fingerprints(BASE, MODEL)
    assert other.sets != base.sets
    assert other.scores != base.scores
    assert other.points != base.points


# (field, spellings of one layer selection, another selection)
LAYER_SPELLINGS = [
    ("dsa_layers", ["conv1,dense1", "dense1,conv1", "conv1, dense1", " dense1 ,conv1,conv1"],
     "conv1"),
    ("dsa_layers", ["", "conv1,conv2,dense1,dense2", "dense2,dense1,conv2,conv1"], "conv1"),
    ("lsa_layer", ["", "dense1"], "dense2"),
]


@pytest.mark.parametrize("field, spellings, other", LAYER_SPELLINGS)
def test_scores_fingerprint_follows_the_selected_layers_not_their_spelling(field, spellings,
                                                                           other):
    def scores_fp(value):
        return fingerprints(with_overrides(BASE, **{field: value}), MODEL).scores

    assert ARCH.neuron_layers() == ("conv1", "conv2", "dense1", "dense2")
    assert len({scores_fp(spelling) for spelling in spellings}) == 1
    assert scores_fp(other) != scores_fp(spellings[0])


@pytest.mark.parametrize("field, spellings, other", LAYER_SPELLINGS)
def test_scoring_fits_the_layers_the_scores_fingerprint_names(monkeypatch, field, spellings,
                                                              other):
    # a scores.npz is trusted only while its fingerprint names the layers
    # that the scoring reads
    train_star = generate_synthetic(4, 3, 8, 1.0, seed=5)
    fitted, named = [], []
    real_lsa, real_dsa, real_fingerprint = metrics.fit_lsa, metrics.fit_dsa, stages._fingerprint

    def fit_lsa(fp, data, layer=None, **kwargs):
        fitted.append(f"lsa.layer = {layer}")
        return real_lsa(fp, data, layer, **kwargs)

    def fit_dsa(fp, data, layers=None):
        fitted.append(f"dsa.layers = {','.join(layers)}")
        return real_dsa(fp, data, layers)

    def fingerprint(tag, cfg, keys, digests):
        if tag.startswith("guidedretrain scores"):
            named.extend(d for d in digests if d.startswith(("lsa.layer = ", "dsa.layers = ")))
        return real_fingerprint(tag, cfg, keys, digests)

    monkeypatch.setattr(metrics, "fit_lsa", fit_lsa)
    monkeypatch.setattr(metrics, "fit_dsa", fit_dsa)
    monkeypatch.setattr(stages, "_fingerprint", fingerprint)
    for value in [*spellings, other]:
        fitted.clear()
        named.clear()
        cfg = with_overrides(BASE, **{field: value})
        fingerprints(cfg, MODEL)
        score_metrics(["LSA", "DSA"], MODEL, train_star, cfg)
        assert len(named) == 2 and fitted == named, value


def test_scores_fingerprint_keeps_a_layer_name_the_architecture_lacks():
    # prepare_data refuses such a name only when its metric runs
    cfg = with_overrides(BASE, dsa_layers="dense9,conv1", lsa_layer="relu3")
    fp = fingerprints(cfg, MODEL).scores
    assert fp != fingerprints(with_overrides(cfg, dsa_layers="conv1"), MODEL).scores
    assert fp != fingerprints(with_overrides(cfg, lsa_layer=""), MODEL).scores


def test_idx_file_bytes_feed_the_sets_fingerprint(tmp_path):
    cfg, paths = idx_config(tmp_path)
    before = fingerprints(cfg, MODEL).sets
    assert fingerprints(cfg, MODEL).sets == before
    for name, path in paths.items():
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 1
        path.write_bytes(bytes(raw))
        assert fingerprints(cfg, MODEL).sets != before, name
        raw[-1] ^= 1
        path.write_bytes(bytes(raw))
    assert fingerprints(cfg, MODEL).sets == before
