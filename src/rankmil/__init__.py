"""Ranking-based multiple instance learning.

Bags of patch feature vectors get scores from a small instance MLP
whose top-scoring patches are averaged into a bag score; training ranks
one positive bag against pairs of negatives with a margin-plus-
clustering hinge loss. Includes baseline objectives, ranking metrics
with exact tie handling, score-covariate correlation, a synthetic
benchmark generator, and a CLI covering the full pipeline.
"""

from .data import (
    Bag,
    Dataset,
    FormatError,
    iter_dataset,
    load_dataset,
    load_feature_file,
    load_manifest,
    write_feature_file,
    write_manifest,
)
from .losses import (
    LossConfig,
    LossOutput,
    LossVariant,
    bag_bce_loss,
    bag_mse_loss,
    pairwise_ranking_loss,
    quadruplet_loss,
    triplet_embedding_loss,
    triplet_ranking_loss,
)
from .metrics import (
    CorrelateResult,
    Correlation,
    CovariateTable,
    EvalReport,
    UndefinedCorrelationError,
    UndefinedMetricError,
    auc,
    average_precision,
    correlate_table,
    evaluate,
    load_covariates,
    pearson,
    pr_points,
    regularized_incomplete_beta,
    roc_points,
)
from .model import (
    BagScore,
    ForwardCache,
    ModelParams,
    aggregate_topk,
    backward,
    backward_bag,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
    score_bag,
)
from .numerics import Rng, ceil_frac, derive
from .synth import SynthConfig, generate, iter_bags, signal_direction, write_dataset
from .training import (
    Adam,
    EpochStats,
    Sgd,
    TrainConfig,
    TrainReport,
    TrainingDiverged,
    score_dataset,
    train,
    write_train_log,
)

__version__ = "0.1.0"
