"""Comparison methods: direct training, prefix extraction, distillation.

- train_dt: plain BCE training at one fixed dimension (a croppable model
  with a single-entry schedule and every extra mechanism disabled).
- ext_crop: take the first d columns of a trained full model, optionally
  after reordering columns by an importance vector (value- or loss-based).
- distill_bkd: train a small student against a frozen teacher with a
  softmax KL term over each positive's candidate set.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .atomic import atomic_write
from .data import Dataset, sample_negatives
from .losses import GradBuffer, LossBreakdown, PrefixBatch, class_mean_bce, kge_loss
from .model import CroppableModel, reorder_dimensions, with_schedule
from .scoring import batch_score
from .train import TrainConfig, TrainResult, TrainState, train_med


def train_dt(dataset: Dataset, dim: int, cfg: TrainConfig) -> TrainResult:
    """Directly train a fixed-dimension model with the plain BCE loss.

    Exactly a croppable run with schedule (dim,) and the mutual-learning,
    weighted-loss, and dynamic-weight mechanisms all disabled.
    """
    dcfg = replace(cfg, dims=(int(dim),), no_mlm=True, no_eim=True, no_dlw=True, probe_dims=None)
    return train_med(dataset, dcfg)


@dataclass
class ImportanceVector:
    """Per-column importance of a full-width model."""

    scores: np.ndarray
    method: str


def importance_by_value(model: CroppableModel) -> ImportanceVector:
    """Mean absolute parameter value per column, over all tables' rows."""
    stacked = np.concatenate([t.astype(np.float64) for t in model.tables.values()], axis=0)
    return ImportanceVector(scores=np.abs(stacked).mean(axis=0), method="value")


def importance_by_loss(model: CroppableModel, dataset: Dataset) -> ImportanceVector:
    """Loss increase on validation positives when a column is zeroed.

    importance_j = L(valid, model with column j zeroed in every table)
    - L(valid, model). Zeroing hits all tables simultaneously, so paired
    columns (rotate re/im/phase) are knocked out together.
    """
    if len(dataset.valid) == 0:
        raise ValueError("loss-based importance needs a validation split")
    work = model.copy()
    valid = dataset.valid
    ones = np.ones(len(valid), dtype=np.int64)
    base = kge_loss(batch_score(work, work.n, valid), ones)
    scores = np.empty(model.dim, dtype=np.float64)
    for j in range(model.dim):
        saved = {name: table[:, j].copy() for name, table in work.tables.items()}
        for table in work.tables.values():
            table[:, j] = 0
        zeroed = kge_loss(batch_score(work, work.n, valid), ones)
        for name, column in saved.items():
            work.tables[name][:, j] = column
        scores[j] = zeroed - base
    return ImportanceVector(scores=scores, method="loss")


def write_importance(vec: ImportanceVector, path: str | Path) -> None:
    """Persist as TSV `column<TAB>score` (full float precision)."""
    with atomic_write(path) as fh:
        fh.write(f"# method: {vec.method}\n")
        for j, s in enumerate(vec.scores):
            fh.write(f"{j}\t{float(s)!r}\n")


def read_importance(path: str | Path) -> ImportanceVector:
    """Read a TSV written by write_importance."""
    method = "unknown"
    pairs = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if "method:" in line:
                    method = line.split("method:", 1)[1].strip()
                continue
            col, score = line.split("\t")
            pairs.append((int(col), float(score)))
    pairs.sort()
    return ImportanceVector(scores=np.array([s for _, s in pairs]), method=method)


def ext_crop(model: CroppableModel, dim: int, importance: ImportanceVector | None = None) -> CroppableModel:
    """First-d-columns extraction, optionally importance-reordered first.

    Unlike crop_model, any 1 <= dim <= d_n is allowed; the result's
    schedule is the old dims below dim plus dim itself.
    """
    if not 1 <= dim <= model.dim:
        raise ValueError(f"extraction dim {dim} out of range 1..{model.dim}")
    if importance is not None:
        scores = getattr(importance, "scores", importance)
        model = reorder_dimensions(model, scores)
    return with_schedule(model, tuple(d for d in model.dims if d < dim) + (dim,))


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def bkd_loss(
    student: CroppableModel,
    teacher: CroppableModel,
    positives: np.ndarray,
    negatives,
    *,
    temperature: float = 1.0,
    alpha: float = 0.5,
) -> tuple[LossBreakdown, GradBuffer]:
    """Distillation objective: alpha*BCE + (1-alpha)*T^2*KL(teacher||student).

    The distribution unit is one positive's candidate set (itself plus its
    k negatives), softmaxed at temperature T. Teacher scores are constants.
    """
    positives = np.asarray(positives, dtype=np.int64).reshape(-1, 3)
    b, k = negatives.heads.shape
    batch = PrefixBatch(student, student.n, positives, negatives)
    s_all = batch.scores(student.n)
    s_pos, s_neg = s_all[:b], s_all[b:]
    bce, dpos, dneg = class_mean_bce(s_pos, s_neg)

    t_all = PrefixBatch(teacher, teacher.n, positives, negatives).scores(teacher.n)
    t_pos, t_neg = t_all[:b], t_all[b:]
    z_t = np.column_stack([t_pos, t_neg.reshape(b, k)])
    z_s = np.column_stack([s_pos, s_neg.reshape(b, k)])
    p = _softmax_rows(z_t / temperature)
    q = _softmax_rows(z_s / temperature)
    kl = float(np.mean(np.sum(p * (np.log(p) - np.log(q)), axis=1)))

    total = alpha * bce + (1.0 - alpha) * temperature**2 * kl
    dz = (1.0 - alpha) * temperature * (q - p) / b
    dpos_total = alpha * dpos + dz[:, 0]
    dneg_total = alpha * dneg + dz[:, 1:].reshape(-1)

    buf = batch.grads({student.n: np.concatenate([dpos_total, dneg_total])}, GradBuffer())
    breakdown = LossBreakdown(
        index=student.n, total=total, ei={student.n: bce}, ml=None,
        lambdas={student.n: 1.0}, kl=kl,
    )
    return breakdown, buf


def distill_bkd(
    teacher: CroppableModel,
    dataset: Dataset,
    student_dim: int,
    cfg: TrainConfig,
    **loss_options,
) -> TrainResult:
    """Train a fresh student of width student_dim against a frozen teacher.

    loss_options (temperature, alpha) go to bkd_loss, which holds their
    defaults.
    """
    if not 1 <= student_dim <= teacher.dim:
        raise ValueError(f"student dim {student_dim} out of range 1..{teacher.dim}")
    scfg = replace(cfg, score_fn=teacher.score_fn, dims=(int(student_dim),), probe_dims=None)

    def step(state: TrainState, positives: np.ndarray) -> tuple[LossBreakdown, GradBuffer]:
        negatives = sample_negatives(positives, scfg.neg_per_pos, state.model.num_entities, state.rng)
        return bkd_loss(state.model, teacher, positives, negatives, **loss_options)

    return train_med(dataset, scfg, step)
