import pytest

from guidedretrain import metrics, stages
from guidedretrain.config import ExperimentConfig, config_echo, with_overrides
from guidedretrain.data import generate_synthetic, save_idx_dataset
from guidedretrain.metrics import METRICS, guidance_layers, score_metrics
from guidedretrain.model import build_model, desk_architecture
from guidedretrain.stages import fingerprints

MODEL = build_model(desk_architecture(input_shape=(8, 8, 1), classes=4), seed=3)
ARCH = MODEL.architecture
BASE = ExperimentConfig()

# (field, another value) of every config key the sets depend on: the data
# keys, which reach them through M, then the attack's keys
DATA_FIELDS = [
    ("dataset", "idx"), ("synthetic_classes", 3), ("synthetic_per_class_train", 7),
    ("synthetic_per_class_test", 7), ("synthetic_image_size", 9),
    ("synthetic_noise_sigma", 0.5), ("synthetic_seed", 1),
]
SETS_FIELDS = DATA_FIELDS + [("attack_epsilon", 0.2), ("attack_fraction", 0.5), ("seed_attack", 34)]
# every config key M depends on
MODEL_FIELDS = DATA_FIELDS + [
    ("train_epochs", 1), ("train_batch_size", 8), ("train_lr", 0.1), ("train_momentum", 0.5),
    ("seed_init", 12), ("seed_shuffle", 23),
]
SCORES_FIELDS = [
    ("nc_threshold", 0.25), ("lsa_layer", "dense2"), ("lsa_variance_threshold", 1e-3),
    ("dsa_layers", "conv1"), ("seed_random_metric", 45),
]
POINTS_FIELDS = [
    ("retrain_epochs", 1), ("retrain_batch_size", 8), ("retrain_lr", 0.1),
    ("retrain_momentum", 0.5),
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


# the metric whose entry each scoring key feeds
OWNER = {"nc_threshold": "NC", "lsa_layer": "LSA", "lsa_variance_threshold": "LSA",
         "dsa_layers": "DSA", "seed_random_metric": "RANDOM"}
KINDS = ("C1", "C2", "C3")
PAIRS = {f"{kind}_{metric}" for kind in KINDS for metric in METRICS}
EVERY_ENTRY = {"model", "sets", *METRICS, *PAIRS}


def own(metric):
    """A metric's entry and its pairs' entries."""
    return {metric, *(f"{kind}_{metric}" for kind in KINDS)}


def moved(cfg) -> set:
    """The entries whose fingerprint lines differ from BASE's."""
    lines, base = fingerprints(cfg), fingerprints(BASE)
    assert set(lines) == set(base) == EVERY_ENTRY
    return {entry for entry in base if lines[entry] != base[entry]}


def overridden(tmp_path, field, value):
    """BASE with one key changed; "dataset" switches to IDX files under tmp_path."""
    if field == "dataset":
        return idx_config(tmp_path)[0]
    return with_overrides(BASE, **{field: value})


def test_fingerprints_keep_their_values():
    # existing <out> directories stay fresh only while these hold
    model = (
        "guidedretrain model v1",
        "dataset = synthetic",
        "idx.test_images = ", "idx.test_labels = ", "idx.train_images = ", "idx.train_labels = ",
        "seed.init = 11", "seed.shuffle = 22", "synthetic.classes = 4",
        "synthetic.image_size = 16", "synthetic.noise_sigma = 1.0",
        "synthetic.per_class_test = 125", "synthetic.per_class_train = 500",
        "synthetic.seed = 1234", "train.batch_size = 32", "train.epochs = 20", "train.lr = 0.01",
        "train.momentum = 0.9",
    )
    sets = model + ("guidedretrain sets v3", "attack.epsilon = 0.1", "attack.fraction = 0.16",
                    "seed.attack = 33")
    metrics = {
        "NC": ("guidedretrain NC v3", "nc.threshold = 0.5"),
        "LSA": ("guidedretrain LSA v3", "lsa.layer = dense1", "lsa.variance_threshold = 1e-05"),
        "DSA": ("guidedretrain DSA v3", "dsa.layers = conv1,conv2,dense1,dense2"),
        "RANDOM": ("guidedretrain RANDOM v3", "seed.random_metric = 44"),
    }
    pair = ("guidedretrain pair v4", "retrain.batch_size = 32", "retrain.epochs = 5",
            "retrain.lr = 0.01", "retrain.momentum = 0.9")
    want = {"model": model, "sets": sets}
    for metric, lines in metrics.items():
        want[metric] = sets + lines
        want.update({f"{kind}_{metric}": sets + lines + pair for kind in KINDS})
    assert fingerprints(BASE) == want


@pytest.mark.parametrize("field, value", MODEL_FIELDS)
def test_model_follows_every_model_key(tmp_path, field, value):
    # the sets cover M, so every entry moves with it
    assert moved(overridden(tmp_path, field, value)) == EVERY_ENTRY


@pytest.mark.parametrize("field, value", SETS_FIELDS)
def test_sets_follow_every_sets_key(tmp_path, field, value):
    # every metric covers the sets, and every pair its metric; the attack's
    # keys leave M
    model_key = (field, value) in MODEL_FIELDS
    want = EVERY_ENTRY if model_key else EVERY_ENTRY - {"model"}
    assert moved(overridden(tmp_path, field, value)) == want


@pytest.mark.parametrize("field, value", SCORES_FIELDS)
def test_scores_follow_their_own_keys_and_sets_do_not(field, value):
    # a scoring key moves its metric's entry and that metric's pairs only
    assert moved(with_overrides(BASE, **{field: value})) == own(OWNER[field])


@pytest.mark.parametrize("field, value", NEITHER_FIELDS)
def test_other_keys_leave_both_fingerprints(field, value):
    # the sets' and every metric's own lines stay; M's keys move every entry
    # through M's lines, the retraining keys move the pairs, and the pair
    # lists and out move nothing
    lines, base = fingerprints(with_overrides(BASE, **{field: value})), fingerprints(BASE)
    for entry, covered in (("sets", "model"), *((metric, "sets") for metric in METRICS)):
        assert lines[entry][len(lines[covered]):] == base[entry][len(base[covered]):], entry
    want = (EVERY_ENTRY if (field, value) in MODEL_FIELDS
            else PAIRS if (field, value) in POINTS_FIELDS else set())
    assert moved(with_overrides(BASE, **{field: value})) == want


@pytest.mark.parametrize("field, value", POINTS_FIELDS)
def test_points_follow_their_own_keys_and_scores_do_not(field, value):
    assert moved(with_overrides(BASE, **{field: value})) == PAIRS


# M's seeds, one train key, and the keys no link reads: out, and the pair
# lists, since points.npz holds each sweep pair apart
OUTSIDE_FIELDS = [("seed_init", 12), ("seed_shuffle", 23), ("train_epochs", 1), ("out", "x"),
                  ("metrics", ("NC",)), ("configs", ("C3",))]


@pytest.mark.parametrize("field, value",
                         SETS_FIELDS + SCORES_FIELDS + POINTS_FIELDS + OUTSIDE_FIELDS)
def test_points_follow_the_scores_and_no_other_key(tmp_path, field, value):
    # a pair's lines are its metric's lines, which are the sets' lines, which
    # are M's lines, each followed by the link's own; a pair's own lines move
    # for its keys only
    lines, base = fingerprints(overridden(tmp_path, field, value)), fingerprints(BASE)
    assert lines["sets"][:len(lines["model"])] == lines["model"]
    for metric in METRICS:
        assert lines[metric][:len(lines["sets"])] == lines["sets"]
        for kind in KINDS:
            pair, covered = lines[f"{kind}_{metric}"], len(lines[metric])
            assert pair[:covered] == lines[metric]
            moved_alone = pair[covered:] != base[f"{kind}_{metric}"][len(base[metric]):]
            assert moved_alone == ((field, value) in POINTS_FIELDS)


def test_every_config_key_is_read_by_one_link():
    # configs, metrics and out say what a run sweeps and where, not what an
    # entry holds
    def readers(key):
        return [name for name, (_, *keys) in stages._LINKS.items()
                if key in keys or any(k.endswith(".") and key.startswith(k) for k in keys)]

    keys = [line.split(" = ", 1)[0] for line in config_echo(BASE)]
    assert {key: len(readers(key)) for key in keys if len(readers(key)) != 1} == {
        "configs": 0, "metrics": 0, "out": 0}


def test_desk_cnn_layer_names_do_not_depend_on_the_data():
    # fingerprints resolve the SA layers on the default desk CNN, so M's
    # input shape and class count must not change a layer name
    other = desk_architecture(input_shape=(28, 28, 3), classes=10)
    assert other.neuron_layers() == ARCH.neuron_layers() == desk_architecture().neuron_layers()
    for cfg in (BASE, with_overrides(BASE, lsa_layer="conv2", dsa_layers="dense2,conv1")):
        assert guidance_layers(cfg, other) == guidance_layers(cfg, ARCH)


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
    def lines(value):
        return fingerprints(with_overrides(BASE, **{field: value}))[OWNER[field]]

    assert ARCH.neuron_layers() == ("conv1", "conv2", "dense1", "dense2")
    assert len({lines(spelling) for spelling in spellings}) == 1
    assert lines(other) != lines(spellings[0])


@pytest.mark.parametrize("field, spellings, other", LAYER_SPELLINGS)
def test_scoring_fits_the_layers_the_scores_fingerprint_names(monkeypatch, field, spellings,
                                                              other):
    # an LSA or DSA entry is trusted only while its fingerprint names the
    # layers that the scoring reads
    train_star = generate_synthetic(4, 3, 8, 1.0, seed=5)
    fitted = []
    real_lsa, real_dsa = metrics.fit_lsa, metrics.fit_dsa

    def fit_lsa(fp, data, layer=None, **kwargs):
        fitted.append(f"lsa.layer = {layer}")
        return real_lsa(fp, data, layer, **kwargs)

    def fit_dsa(fp, data, layers=None):
        fitted.append(f"dsa.layers = {','.join(layers)}")
        return real_dsa(fp, data, layers)

    monkeypatch.setattr(metrics, "fit_lsa", fit_lsa)
    monkeypatch.setattr(metrics, "fit_dsa", fit_dsa)
    for value in [*spellings, other]:
        fitted.clear()
        cfg = with_overrides(BASE, **{field: value})
        lines = fingerprints(cfg)
        named = [line for metric, key in (("LSA", "lsa.layer = "), ("DSA", "dsa.layers = "))
                 for line in lines[metric] if line.startswith(key)]
        score_metrics(["LSA", "DSA"], MODEL, train_star, cfg)
        assert len(named) == 2 and fitted == named, value


def test_scores_fingerprint_keeps_a_layer_name_the_architecture_lacks():
    # prepare_data refuses such a name only when its metric runs
    cfg = with_overrides(BASE, dsa_layers="dense9,conv1", lsa_layer="relu3")
    lines = fingerprints(cfg)
    assert "dsa.layers = conv1,dense9" in lines["DSA"] and "lsa.layer = relu3" in lines["LSA"]
    assert lines["DSA"] != fingerprints(with_overrides(cfg, dsa_layers="conv1"))["DSA"]
    assert lines["LSA"] != fingerprints(with_overrides(cfg, lsa_layer=""))["LSA"]


def test_idx_file_bytes_feed_the_sets_fingerprint(tmp_path):
    cfg, paths = idx_config(tmp_path)
    before = fingerprints(cfg)["sets"]
    assert fingerprints(cfg)["sets"] == before
    # M covers the four files' digests, and the sets cover M
    assert sum(line.startswith("idx.") and " sha256 = " in line
               for line in fingerprints(cfg)["model"]) == 4
    for name, path in paths.items():
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 1
        path.write_bytes(bytes(raw))
        assert fingerprints(cfg)["sets"] != before, name
        raw[-1] ^= 1
        path.write_bytes(bytes(raw))
    assert fingerprints(cfg)["sets"] == before
