"""Training loop: per-step sub-model sampling, schedule, early stopping.

Each step draws a batch of positives, samples k negatives per positive,
draws one sub-model index uniformly, and optimizes that sub-model's
weighted loss (plus the neighbor mutual-learning term). The learning rate
decays linearly to zero over the full budget. Validation probes a few
schedule dimensions every validate_every epochs on the valid split; the
best-probe snapshot is returned when early stopping triggers.

Everything is driven by one seeded generator with a fixed consumption
order (epoch permutation; per step: negative slots, negative replacements,
sub-model index), so a (seed, config, dataset) triple reproduces the run
bit-for-bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import evaluate
from .data import Dataset, sample_negatives
from .losses import EI_MODES, PAIR_MODES, GradBuffer, LossBreakdown, total_loss
from .model import CroppableModel, ScoreFunction, check_schedule, init_model
from .optim import Adam, lr_schedule

LR_CANDIDATES = (1e-4, 5e-4, 1e-3, 1e-2)


class TrainingDiverged(RuntimeError):
    """Raised when a step produces a non-finite loss; carries the batch."""

    def __init__(self, message: str, batch: np.ndarray):
        super().__init__(message)
        self.batch = batch


@dataclass
class TrainConfig:
    """Hyperparameters for MED training and its ablations."""

    score_fn: ScoreFunction
    dims: tuple[int, ...]
    batch_size: int = 1024
    neg_per_pos: int = 64
    max_epochs: int = 3000
    lr: float | None = None  # None -> search over LR_CANDIDATES
    validate_every: int = 10
    patience: int = 5
    probe_dims: tuple[int, ...] | None = None  # None -> {d_1, d_mid, d_n}
    seed: int = 42
    no_mlm: bool = False
    no_eim: bool = False
    no_dlw: bool = False
    ei_mode: str = "sigmoid"
    pair_mode: str = "single"
    eval_threads: int = 1
    init_range: float | None = None
    dtype: ClassVar = np.float32  # checkpoints store float32 tables

    def __post_init__(self):
        self.dims = check_schedule(self.dims)
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.neg_per_pos < 1:
            raise ValueError("neg_per_pos must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.validate_every < 1 or self.patience < 1:
            raise ValueError("validate_every and patience must be >= 1")
        if self.ei_mode not in EI_MODES:
            raise ValueError(f"unknown ei_mode {self.ei_mode!r}; expected one of {EI_MODES}")
        if self.pair_mode not in PAIR_MODES:
            raise ValueError(f"unknown pair_mode {self.pair_mode!r}; expected one of {PAIR_MODES}")
        if self.probe_dims is not None:
            # compared before the int conversion, so a fractional width is not truncated into the schedule
            if not set(self.probe_dims) <= set(self.dims):
                raise ValueError(f"probe_dims {tuple(self.probe_dims)} not a subset of schedule {self.dims}")
            self.probe_dims = tuple(int(d) for d in self.probe_dims)

    def resolved_probe_dims(self) -> tuple[int, ...]:
        if self.probe_dims is not None:
            return self.probe_dims
        n = len(self.dims)
        picks = {self.dims[0], self.dims[math.ceil(n / 2) - 1], self.dims[-1]}
        return tuple(sorted(picks))


@dataclass
class TrainState:
    """Mutable state of one training run."""

    model: CroppableModel
    adam: Adam
    rng: np.random.Generator
    cfg: TrainConfig
    lr: float
    max_steps: int
    step: int = 0


@dataclass
class TrainResult:
    """Trained model plus the run's log and bookkeeping."""

    model: CroppableModel
    log: list[dict]
    lr: float
    epochs_run: int
    stopped_early: bool
    best_probe_mrr: float | None
    best_epoch: int | None
    clamped: int
    lr_search: dict[float, float] | None = None


def init_state(dataset: Dataset, cfg: TrainConfig, lr: float) -> TrainState:
    """Fresh model, optimizer, and RNG for one run."""
    rng = np.random.default_rng(cfg.seed)
    model = init_model(
        cfg.score_fn,
        cfg.dims,
        dataset.num_entities,
        dataset.num_relations,
        rng,
        dtype=cfg.dtype,
        init_range=cfg.init_range,
    )
    steps_per_epoch = max(1, math.ceil(len(dataset.train) / cfg.batch_size))
    return TrainState(
        model=model,
        adam=Adam.for_model(model),
        rng=rng,
        cfg=cfg,
        lr=lr,
        max_steps=steps_per_epoch * cfg.max_epochs,
    )


def med_step(state: TrainState, positives: np.ndarray) -> tuple[LossBreakdown, GradBuffer]:
    """MED loss and gradients on a batch of positives (no update)."""
    cfg = state.cfg
    negatives = sample_negatives(positives, cfg.neg_per_pos, state.model.num_entities, state.rng)
    index = int(state.rng.integers(1, state.model.n + 1))
    return total_loss(
        state.model,
        index,
        positives,
        negatives,
        no_mlm=cfg.no_mlm,
        no_eim=cfg.no_eim,
        no_dlw=cfg.no_dlw,
        ei_mode=cfg.ei_mode,
        pair_mode=cfg.pair_mode,
    )


def train_step(state: TrainState, positives: np.ndarray, step_fn=med_step) -> LossBreakdown:
    """One optimization step: step_fn's loss and gradients, then Adam.

    step_fn(state, positives) -> (LossBreakdown, GradBuffer). A non-finite
    loss raises TrainingDiverged before anything is updated.
    """
    breakdown, grads = step_fn(state, positives)
    if not breakdown.finite():
        raise TrainingDiverged(
            f"non-finite loss at step {state.step} (sub-model {breakdown.index}, total={breakdown.total!r}); "
            f"offending batch of {len(positives)} positives attached",
            batch=np.array(positives),
        )
    lr_t = lr_schedule(state.step, state.max_steps, state.lr)
    state.adam.apply(state.model, grads.finalized(), grads.w, lr_t)
    state.step += 1
    return breakdown


class _EpochStats:
    """Mean aggregation of per-step loss breakdowns."""

    def __init__(self):
        self.totals = []
        self.ei: dict[int, list] = {}
        self.lambdas: dict[int, list] = {}
        self.ml = []
        self.kl = []
        self.clamped = 0

    def add(self, b: LossBreakdown):
        self.totals.append(b.total)
        for idx, val in b.ei.items():
            self.ei.setdefault(idx, []).append(val)
        for idx, val in b.lambdas.items():
            self.lambdas.setdefault(idx, []).append(val)
        if b.ml is not None:
            self.ml.append(b.ml)
        if b.kl is not None:
            self.kl.append(b.kl)
        self.clamped += b.clamped

    def record(self) -> dict:
        rec = {
            "total": float(np.mean(self.totals)),
            "ei": {str(i): float(np.mean(v)) for i, v in sorted(self.ei.items())},
            "lambda": {str(i): float(np.mean(v)) for i, v in sorted(self.lambdas.items())},
            "ml": float(np.mean(self.ml)) if self.ml else None,
        }
        if self.kl:
            rec["kl"] = float(np.mean(self.kl))
        if self.clamped:
            rec["clamped"] = self.clamped
        return rec


def run_training_loop(dataset: Dataset, cfg: TrainConfig, state: TrainState, step_fn) -> TrainResult:
    """Shared epoch/validation/early-stop engine.

    step_fn(state, positives) -> (LossBreakdown, GradBuffer) computes one
    step's loss and gradients; the engine applies them (train_step) and owns
    batching, logging, validation, snapshots, and early stopping.
    """
    train = dataset.train
    if len(train) == 0:
        raise ValueError("empty training split")
    can_validate = len(dataset.valid) > 0
    probe_dims = cfg.resolved_probe_dims()
    probe_indices = [cfg.dims.index(d) + 1 for d in probe_dims]

    log: list[dict] = []
    best_mrr: float | None = None
    best_epoch: int | None = None
    best_model: CroppableModel | None = None
    bad = 0
    clamped_total = 0
    stopped_early = False
    epochs_run = 0

    for epoch in range(1, cfg.max_epochs + 1):
        lr_epoch = lr_schedule(state.step, state.max_steps, state.lr)
        perm = state.rng.permutation(len(train))
        stats = _EpochStats()
        for start in range(0, len(train), cfg.batch_size):
            batch = train[perm[start : start + cfg.batch_size]]
            stats.add(train_step(state, batch, step_fn))
        epochs_run = epoch
        clamped_total += stats.clamped
        record = {"epoch": epoch, "lr": lr_epoch, "loss": stats.record(),
                  "scalars": {"w1": state.model.w1, "w2": state.model.w2, "w3": state.model.w3}}

        if can_validate and epoch % cfg.validate_every == 0:
            probes = {}
            for idx in probe_indices:
                report = evaluate.link_prediction(
                    state.model, idx, dataset, split="valid", threads=cfg.eval_threads
                )
                probes[str(report.dim)] = report.mrr
            mean_mrr = float(np.mean(list(probes.values())))
            record["probe_mrr"] = probes
            record["mean_probe_mrr"] = mean_mrr
            if best_mrr is None or mean_mrr > best_mrr:
                best_mrr = mean_mrr
                best_epoch = epoch
                best_model = state.model.copy()
                bad = 0
            else:
                bad += 1
            log.append(record)
            if bad >= cfg.patience:
                stopped_early = True
                break
        else:
            log.append(record)

    final = best_model if best_model is not None else state.model
    return TrainResult(
        model=final,
        log=log,
        lr=state.lr,
        epochs_run=epochs_run,
        stopped_early=stopped_early,
        best_probe_mrr=best_mrr,
        best_epoch=best_epoch,
        clamped=clamped_total,
    )


def run_with_lr_policy(dataset: Dataset, cfg: TrainConfig, run_fn) -> TrainResult:
    """Honor an explicit cfg.lr, or search LR_CANDIDATES.

    run_fn(lr) -> TrainResult trains one full run. The search keeps the
    candidate with the best validation probe MRR (first wins ties), so it
    needs a nonempty valid split and at least one validation epoch.
    """
    if cfg.lr is not None:
        return run_fn(cfg.lr)
    if len(dataset.valid) == 0:
        raise ValueError("learning-rate search needs a validation split; set lr explicitly")
    results: dict[float, TrainResult] = {}
    for lr in LR_CANDIDATES:
        results[lr] = run_fn(lr)
        if results[lr].best_probe_mrr is None:
            raise ValueError("learning-rate search requires validation epochs; lower validate_every")
    best_lr = None
    for lr in LR_CANDIDATES:
        if best_lr is None or results[lr].best_probe_mrr > results[best_lr].best_probe_mrr:
            best_lr = lr
    chosen = results[best_lr]
    chosen.lr_search = {lr: results[lr].best_probe_mrr for lr in LR_CANDIDATES}
    return chosen


def train_med(dataset: Dataset, cfg: TrainConfig, step_fn=med_step) -> TrainResult:
    """Train a croppable model; cfg.lr None runs the learning-rate search.

    step_fn(state, positives) -> (LossBreakdown, GradBuffer) computes each
    step's loss and gradients: the MED objective unless a caller, such as
    distillation, passes its own.
    """

    def run(lr: float) -> TrainResult:
        return run_training_loop(dataset, cfg, init_state(dataset, cfg, lr), step_fn)

    return run_with_lr_policy(dataset, cfg, run)
