"""Croppable knowledge-graph embeddings.

One training run produces a single parameter store whose first-d column
prefixes are themselves usable models. Sub-models are cropped out of the
full tables without retraining, evaluated with the standard filtered
link-prediction protocol, and compared against directly-trained,
extraction, and distillation baselines.
"""

__version__ = "0.1.0"

from .data import Dataset, FilterIndex, NegativeBatch, load_dataset, make_dataset, sample_negatives
from .model import (
    LAYOUTS,
    CroppableModel,
    ScoreFunction,
    crop_model,
    init_model,
    param_count,
    reorder_dimensions,
    with_schedule,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .scoring import ScoreGrad, batch_score, score, score_grad
from .losses import (
    GradBuffer,
    LossBreakdown,
    ei_loss,
    ei_weights_neg,
    ei_weights_pos,
    huber,
    kge_loss,
    mutual_learning_loss,
    total_loss,
)
from .optim import Adam, lr_schedule
from .train import TrainConfig, TrainResult, train_med
from .baselines import distill_bkd, ext_crop, importance_by_loss, importance_by_value, train_dt
from .evaluate import (
    MetricsReport,
    RankOutcome,
    arr,
    emit_report,
    link_prediction,
    rank_triple,
    retention_value,
)
