"""Metric-guided retraining of small CNNs against FGSM adversarial inputs."""

from .attack import AugmentedSets, build_augmented_sets, fgsm
from .autodiff import (
    Conv2D,
    Dense,
    GradientBundle,
    Graph,
    GraphError,
    MaxPool2D,
    Relu,
    backward_grads,
    forward_eval,
    sgd_step,
)
from .config import ConfigError, ExperimentConfig, load_config, parse_config
from .data import generate_synthetic, load_idx_dataset, save_idx_dataset
from .metrics import (
    fit_dsa,
    fit_lsa,
    order_inputs,
    random_scores,
    score_metrics,
    timed_scoring,
)
from .model import (
    ArchitectureDescriptor,
    Dataset,
    ForwardPass,
    ModelState,
    TrainParams,
    accuracy,
    build_model,
    desk_architecture,
    forward_pass,
    load_model,
    predict,
    save_model,
    train,
)
from .reports import ReportBundle, compute_trend, run_pipeline
from .retrain import (
    ExperimentRecord,
    RetrainBatch,
    RetrainRun,
    compare_records,
    retrain_point,
    run_experiment,
    run_experiments,
    sweep_sizes,
)

__version__ = "0.1.0"
