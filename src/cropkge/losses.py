"""Training losses: weighted BCE, mutual learning, evolutionary improvement.

Per optimization step one sub-model index i is drawn and the objective is

    lambda_i * L_EI^i  (+ L_ML^{i-1,i} for i >= 2)

with lambda_i = exp(w3 * d_i / d_n). The EI loss is a BCE over the batch
whose per-triple weights come from the next-smaller sub-model's scores:
positives it already scores high are down-weighted (softmax of w1/g(s)),
negatives it scores high are up-weighted (softmax of w2*g(s)). Teacher
scores act as constants (no gradient to the smaller sub-model), while w1,
w2 and w3 stay learnable. At i = 1 both weight vectors are uniform and the
EI loss is exactly the plain per-class-mean BCE.

All reductions are means over the batch; the EI terms are already
normalized by their softmax weights, so no further mean is applied there.

total_loss computes a step in one pass. Sub-model i-1 is a column prefix
of sub-model i, so one gather at d_i of the batch's positives and
negatives (PrefixBatch) gives the scores at every width the step reads:
d_i, d_{i-1}, and d_{i-2} in pair mode. d(loss)/d(score) from each term is
summed per width, folded into one per-column gradient of the score terms,
mapped to slot gradients once, and scattered once per table (segment_sum).
ei_loss and mutual_learning_loss compute the same terms one pass at a
time; they are the reference the one-pass step is tested against.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import NegativeBatch
from .model import CroppableModel
from .scoring import _backward, _forward, _scores, _vjp, batch_score, batch_score_grad, gather_slots

RAW_EPS = 1e-6
EI_MODES = ("sigmoid", "raw")  # teacher-score input g(s) of the EI weights
PAIR_MODES = ("single", "pair")


def softplus(x):
    """log(1 + exp(x)) without overflow."""
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def sigmoid(x):
    """Numerically stable logistic function."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def huber(residual, delta: float = 1.0):
    """Huber penalty: r^2/2 inside |r| <= delta, linear outside."""
    r = np.asarray(residual, dtype=np.float64)
    a = np.abs(r)
    out = np.where(a <= delta, 0.5 * r * r, delta * (a - 0.5 * delta))
    return float(out) if np.isscalar(residual) else out


def huber_grad(residual, delta: float = 1.0):
    """Derivative of huber: the residual clipped to [-delta, delta]."""
    r = np.asarray(residual, dtype=np.float64)
    return np.clip(r, -delta, delta)


def segment_sum(contribs: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Sum gradient rows that share a row id.

    contribs are (row ids (M,), block (M, w)) pairs; a block narrower than
    the widest fills the leading columns. Returns (sorted unique row ids,
    summed block). Each cell sums the contributions in list order, and
    within one contribution in row order (np.bincount adds in input
    order), so equal inputs give equal bytes.
    """
    width = max(block.shape[1] for _, block in contribs)
    uids, inverse = np.unique(np.concatenate([ids for ids, _ in contribs]), return_inverse=True)
    sums = np.zeros(len(uids) * width, dtype=np.float64)
    row = 0
    for ids, block in contribs:
        n, w = block.shape
        cells = (inverse[row : row + n] * width)[:, None] + np.arange(w)
        sums += np.bincount(cells.ravel(), weights=block.ravel(), minlength=sums.size)
        row += n
    return uids, sums.reshape(len(uids), width)


class GradBuffer:
    """Sparse gradient accumulator: table row blocks plus scalar grads.

    Contributions are appended cheaply and summed by row id in finalized(),
    one segment_sum per table.
    """

    def __init__(self):
        self._contribs: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}
        self.w = {"w1": 0.0, "w2": 0.0, "w3": 0.0}
        self.clamped = 0

    def add(self, table: str, ids: np.ndarray, grads: np.ndarray) -> None:
        self._contribs.setdefault(table, []).append((ids, grads))

    def add_scalar(self, name: str, value: float) -> None:
        self.w[name] += float(value)

    def finalized(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Per table: (unique row ids, accumulated gradient block)."""
        return {table: segment_sum(contribs) for table, contribs in self._contribs.items()}

    def dense(self, shapes: dict[str, tuple[int, int]]) -> dict[str, np.ndarray]:
        """Full-shape gradient arrays (testing convenience)."""
        out = {table: np.zeros(shape, dtype=np.float64) for table, shape in shapes.items()}
        for table, (uids, acc) in self.finalized().items():
            out[table][uids, : acc.shape[1]] += acc
        return out


class PrefixBatch:
    """One gather and forward pass over positives then negatives at sub-model i.

    scores(idx) reads sub-model idx <= i from column prefixes of that pass;
    grads() folds d(loss)/d(score) at every width into one backward pass.
    """

    def __init__(self, model: CroppableModel, i: int, positives: np.ndarray, negatives: NegativeBatch):
        positives = np.asarray(positives, dtype=np.int64).reshape(-1, 3)
        nh, nr, nt = negatives.flat()
        h = np.concatenate([positives[:, 0], nh])
        r = np.concatenate([positives[:, 1], nr])
        t = np.concatenate([positives[:, 2], nt])
        vecs, self.ids, self.tables = gather_slots(model, i, h, r, t, check=False)
        self.kind, self.norm, self.dims = model.score_fn.kind, model.score_fn.norm, model.dims
        self.parts, self.saved = _forward(self.kind, vecs)
        self._scores: dict[int, np.ndarray] = {}

    def _prefix(self, idx: int) -> tuple:
        d = self.dims[idx - 1]
        return tuple(p[:, :d] for p in self.parts)

    def scores(self, idx: int) -> np.ndarray:
        """Scores of sub-model idx, one per triple (positives first)."""
        if idx not in self._scores:
            self._scores[idx] = _scores(self.kind, self.norm, self._prefix(idx))
        return self._scores[idx]

    def grads(self, dscores: dict[int, np.ndarray]) -> GradBuffer:
        """Table gradients of sum over idx of dscores[idx] . scores(idx).

        dscores must hold the batch's own index i: its full-width block is
        the accumulator the narrower ones add into.
        """
        g = None
        for idx in sorted(dscores, reverse=True):
            d = self.dims[idx - 1]
            blocks = _vjp(self.kind, self.norm, self._prefix(idx), self.scores(idx), dscores[idx])
            if g is None:
                g = list(blocks)
            else:
                for acc, block in zip(g, blocks):
                    acc[:, :d] += block
        buf = GradBuffer()
        for slot, grad in _backward(self.kind, self.saved, g).items():
            buf.add(self.tables[slot], self.ids[slot], grad)
        return buf


@dataclass
class LossBreakdown:
    """Per-step loss components at the sampled sub-model index."""

    index: int
    total: float
    ei: dict[int, float]
    ml: float | None
    lambdas: dict[int, float]
    clamped: int = 0
    kl: float | None = None

    def finite(self) -> bool:
        values = [self.total, *self.ei.values(), *self.lambdas.values()]
        for extra in (self.ml, self.kl):
            if extra is not None:
                values.append(extra)
        return bool(np.all(np.isfinite(values)))


def _uniform(n: int) -> np.ndarray:
    return np.full(n, 1.0 / n, dtype=np.float64) if n else np.empty(0, dtype=np.float64)


def _weighted_bce(pos_scores, pos_w, neg_scores, neg_w):
    """Weighted BCE value and d/d(score) for positives and negatives."""
    value = float(np.sum(pos_w * softplus(-pos_scores)) + np.sum(neg_w * softplus(neg_scores)))
    dpos = pos_w * (sigmoid(pos_scores) - 1.0)
    dneg = neg_w * sigmoid(neg_scores)
    return value, dpos, dneg


def class_mean_bce(pos_scores, neg_scores):
    """Per-class-mean BCE value and d/d(score) for positives and negatives."""
    return _weighted_bce(pos_scores, _uniform(len(pos_scores)), neg_scores, _uniform(len(neg_scores)))


def kge_loss(scores, labels) -> float:
    """Plain BCE on scores with 0/1 labels, mean-reduced per label class.

    Positives and negatives are averaged separately (uniform weights within
    each class), which makes the EI loss at i = 1 coincide with this loss
    exactly.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must have the same length")
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    value, _, _ = class_mean_bce(pos, neg)
    return value


def _g_of(scores: np.ndarray, mode: str) -> tuple[np.ndarray, int]:
    """Teacher-score transform g(s); raw mode clamps |s| < eps away from 0."""
    if mode == "sigmoid":
        return sigmoid(scores), 0
    if mode == "raw":
        small = np.abs(scores) < RAW_EPS
        g = np.where(small, np.where(scores < 0.0, -RAW_EPS, RAW_EPS), scores)
        return g, int(np.count_nonzero(small))
    raise ValueError(f"unknown EI weight input mode {mode!r}")


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max()
    e = np.exp(z)
    return e / e.sum()


def ei_weights_pos(teacher_scores, w1: float, i: int, mode: str = "sigmoid"):
    """Per-positive weights (Eq.-style): softmax over the batch of w1/g(s).

    i = 1 has no teacher and returns uniform weights. Higher teacher scores
    give lower weights (for w1 > 0): triples the smaller sub-model already
    gets right matter less.
    """
    weights, _, _ = _ei_weights_pos_full(teacher_scores, w1, i, mode)
    return weights


def _ei_weights_pos_full(teacher_scores, w1, i, mode):
    scores = np.asarray(teacher_scores, dtype=np.float64).ravel()
    if i == 1:
        return _uniform(len(scores)), None, 0
    g, clamped = _g_of(scores, mode)
    weights = _softmax(w1 / g)
    # logits are w1 * (1/g): d w_j / d w1 via the softmax Jacobian
    a = 1.0 / g
    dw = weights * (a - float(np.dot(weights, a)))
    return weights, dw, clamped


def ei_weights_neg(teacher_scores, w2: float, i: int, mode: str = "sigmoid"):
    """Per-negative weights: softmax over the batch of w2*g(s).

    Uniform at i = 1. Higher teacher scores give higher weights: negatives
    the smaller sub-model wrongly favors get extra attention.
    """
    weights, _, _ = _ei_weights_neg_full(teacher_scores, w2, i, mode)
    return weights


def _ei_weights_neg_full(teacher_scores, w2, i, mode):
    scores = np.asarray(teacher_scores, dtype=np.float64).ravel()
    if i == 1:
        return _uniform(len(scores)), None, 0
    g, clamped = _g_of(scores, mode)
    weights = _softmax(w2 * g)
    dw = weights * (g - float(np.dot(weights, g)))
    return weights, dw, clamped


def _add_score_grads(buf, dscores, grads, ids, tables):
    for slot, g in grads.items():
        buf.add(tables[slot], ids[slot], g * dscores[:, None])


def ei_loss(
    model: CroppableModel,
    i: int,
    positives: np.ndarray,
    negatives: NegativeBatch,
    mode: str = "sigmoid",
    force_uniform: bool = False,
) -> tuple[float, GradBuffer]:
    """Evolutionary-improvement loss of sub-model i plus its gradients.

    Returns (value, grads); grads cover sub-model i's touched rows and the
    scalars w1/w2 (for i > 1). force_uniform drops the teacher weighting
    entirely, turning this into the plain per-class-mean BCE.
    """
    positives = np.asarray(positives, dtype=np.int64).reshape(-1, 3)
    ph, pr, pt = positives[:, 0], positives[:, 1], positives[:, 2]
    nh, nr, nt = negatives.flat()

    s_pos, gpos, ids_pos, tabs_pos = batch_score_grad(model, i, ph, pr, pt, check=False)
    s_neg, gneg, ids_neg, tabs_neg = batch_score_grad(model, i, nh, nr, nt, check=False)

    buf = GradBuffer()
    if i == 1 or force_uniform:
        pos_w, dw1 = _uniform(len(s_pos)), None
        neg_w, dw2 = _uniform(len(s_neg)), None
    else:
        t_pos = batch_score(model, i - 1, positives)
        t_neg = batch_score(model, i - 1, np.stack([nh, nr, nt], axis=1))
        pos_w, dw1, c1 = _ei_weights_pos_full(t_pos, model.w1, i, mode)
        neg_w, dw2, c2 = _ei_weights_neg_full(t_neg, model.w2, i, mode)
        buf.clamped += c1 + c2

    value, dpos, dneg = _weighted_bce(s_pos, pos_w, s_neg, neg_w)
    _add_score_grads(buf, dpos, gpos, ids_pos, tabs_pos)
    _add_score_grads(buf, dneg, gneg, ids_neg, tabs_neg)
    if dw1 is not None:
        buf.add_scalar("w1", float(np.dot(softplus(-s_pos), dw1)))
    if dw2 is not None:
        buf.add_scalar("w2", float(np.dot(softplus(s_neg), dw2)))
    return value, buf


def mutual_learning_loss(
    model: CroppableModel, i: int, positives: np.ndarray, negatives: NegativeBatch
) -> tuple[float, GradBuffer]:
    """Huber distance between neighbor sub-model scores, mean-reduced.

    Covers the batch positives and negatives jointly. Gradients flow into
    both sub-model i-1 and sub-model i (each learns from the other).
    """
    if i < 2:
        raise ValueError("mutual learning needs a neighbor pair, i >= 2")
    positives = np.asarray(positives, dtype=np.int64).reshape(-1, 3)
    nh, nr, nt = negatives.flat()
    h = np.concatenate([positives[:, 0], nh])
    r = np.concatenate([positives[:, 1], nr])
    t = np.concatenate([positives[:, 2], nt])

    s_prev, gprev, ids_prev, tabs_prev = batch_score_grad(model, i - 1, h, r, t, check=False)
    s_cur, gcur, ids_cur, tabs_cur = batch_score_grad(model, i, h, r, t, check=False)
    resid = s_prev - s_cur
    value = float(np.mean(huber(resid)))
    dresid = huber_grad(resid) / len(resid)

    buf = GradBuffer()
    _add_score_grads(buf, dresid, gprev, ids_prev, tabs_prev)
    _add_score_grads(buf, -dresid, gcur, ids_cur, tabs_cur)
    return value, buf


def total_loss(
    model: CroppableModel,
    index: int,
    positives: np.ndarray,
    negatives: NegativeBatch,
    no_mlm: bool = False,
    no_eim: bool = False,
    no_dlw: bool = False,
    ei_mode: str = "sigmoid",
    pair_mode: str = "single",
) -> tuple[LossBreakdown, GradBuffer]:
    """Per-step objective at the sampled sub-model index, in one pass.

    lambda_index * L_EI^index, plus the neighbor mutual-learning term for
    index >= 2; pair_mode="pair" also optimizes lambda_{index-1} *
    L_EI^{index-1}. Ablations: no_mlm drops the mutual term, no_eim swaps
    the EI loss for the plain BCE, no_dlw pins every lambda to 1 (and stops
    w3 from learning). They compose independently. Values equal
    ei_loss/mutual_learning_loss bitwise; gradients agree up to summation
    order.
    """
    if pair_mode not in PAIR_MODES:
        raise ValueError(f"unknown pair mode {pair_mode!r}")
    if not 1 <= index <= model.n:
        raise ValueError(f"sub-model index {index} out of range 1..{model.n}")
    b = len(np.asarray(positives).reshape(-1, 3))
    batch = PrefixBatch(model, index, positives, negatives)

    ei_indices = [index]
    if pair_mode == "pair" and index >= 2:
        ei_indices.append(index - 1)
    with_ml = index >= 2 and not no_mlm

    w = {"w1": 0.0, "w2": 0.0, "w3": 0.0}
    clamped = 0
    dscores: dict[int, np.ndarray] = {}
    ei_values: dict[int, float] = {}
    lambdas: dict[int, float] = {}
    total = 0.0
    for idx in ei_indices:
        s_pos, s_neg = batch.scores(idx)[:b], batch.scores(idx)[b:]
        if idx == 1 or no_eim:
            pos_w, dw1 = _uniform(len(s_pos)), None
            neg_w, dw2 = _uniform(len(s_neg)), None
        else:
            teacher = batch.scores(idx - 1)
            pos_w, dw1, c1 = _ei_weights_pos_full(teacher[:b], model.w1, idx, ei_mode)
            neg_w, dw2, c2 = _ei_weights_neg_full(teacher[b:], model.w2, idx, ei_mode)
            clamped += c1 + c2
        value, dpos, dneg = _weighted_bce(s_pos, pos_w, s_neg, neg_w)
        if no_dlw:
            lam, dlam = 1.0, 0.0
        else:
            ratio = model.dims[idx - 1] / model.dim
            lam = float(np.exp(model.w3 * ratio))
            dlam = ratio * lam
        dscores[idx] = lam * np.concatenate([dpos, dneg])
        if dw1 is not None:
            w["w1"] += lam * float(np.dot(softplus(-s_pos), dw1))
            w["w2"] += lam * float(np.dot(softplus(s_neg), dw2))
        w["w3"] += float(dlam * value)
        ei_values[idx] = value
        lambdas[idx] = lam
        total += lam * value

    ml_value = None
    if with_ml:
        resid = batch.scores(index - 1) - batch.scores(index)
        ml_value = float(np.mean(huber(resid)))
        dresid = huber_grad(resid) / len(resid)
        dscores[index - 1] = dscores.get(index - 1, 0.0) + dresid
        dscores[index] = dscores[index] - dresid
        total += ml_value

    buf = batch.grads(dscores)
    buf.w = w
    buf.clamped = clamped
    breakdown = LossBreakdown(
        index=index,
        total=total,
        ei=ei_values,
        ml=ml_value,
        lambdas=lambdas,
        clamped=clamped,
    )
    return breakdown, buf
