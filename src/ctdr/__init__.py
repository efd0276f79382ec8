"""Train one classifier on a labeled source and an unlabeled target domain.

The target side is driven by a prior-enforcing pseudo-labeling objective; an
optional adversarial term over fake samples regularizes the decision surface.
Everything runs on float64 with fully seeded randomness, so results reproduce
bit-for-bit.
"""

from .data import (
    Batcher,
    Dataset,
    DomainPair,
    FeatureTransform,
    empirical_prior,
    load_idx,
    load_sparse,
    save_sparse,
    standardize,
    synth_gauss_shift,
    synth_two_moons,
)
from .errors import (
    CheckpointError,
    ConfigError,
    ContractViolation,
    CtdrError,
    NonFiniteLossError,
    ParseError,
)
from .evaluation import EvalReport, evaluate, export_embeddings, predict
from .fake import FakeSourceConfig, FeatureStats, gaussian_fakes, generator_fakes, generator_step
from .losses import (
    LossReport,
    PseudoLabels,
    adv_bce,
    class_mass,
    contradist_loss,
    make_prior,
    median_heuristic_gamma,
    mmd_loss,
    pseudo_label_select,
    source_ce,
)
from .model import (
    Architecture,
    LayerSpec,
    ParamSet,
    backward,
    forward,
    generator_forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .numerics import Rng, finite_diff_grad, gaussian_kernel_matrix, log_sum_exp, softmax_rows
from .optim import OptimizerState
from .train import LossCombo, TrainConfig, adam_update, fit, resolve_prior, train_step

__version__ = "0.1.0"

__all__ = [
    "Architecture",
    "Batcher",
    "CheckpointError",
    "ConfigError",
    "ContractViolation",
    "CtdrError",
    "Dataset",
    "DomainPair",
    "EvalReport",
    "FakeSourceConfig",
    "FeatureStats",
    "FeatureTransform",
    "LayerSpec",
    "LossCombo",
    "LossReport",
    "NonFiniteLossError",
    "OptimizerState",
    "ParamSet",
    "ParseError",
    "PseudoLabels",
    "Rng",
    "TrainConfig",
    "adam_update",
    "adv_bce",
    "backward",
    "class_mass",
    "contradist_loss",
    "empirical_prior",
    "evaluate",
    "export_embeddings",
    "fit",
    "finite_diff_grad",
    "forward",
    "gaussian_fakes",
    "gaussian_kernel_matrix",
    "generator_fakes",
    "generator_forward",
    "generator_step",
    "init_params",
    "load_checkpoint",
    "load_idx",
    "load_sparse",
    "log_sum_exp",
    "make_prior",
    "median_heuristic_gamma",
    "mmd_loss",
    "predict",
    "pseudo_label_select",
    "resolve_prior",
    "save_checkpoint",
    "save_sparse",
    "softmax_rows",
    "source_ce",
    "standardize",
    "synth_gauss_shift",
    "synth_two_moons",
    "train_step",
]
