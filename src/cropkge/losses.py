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

Each term is written once: _ei_weights is the teacher softmax, _ei_term the
weighted BCE with its w1/w2 gradients, _ml_term the huber distance. ei_loss
and mutual_learning_loss call the same helpers but gather every term at its
own width (one PrefixBatch per width, teacher scores from batch_score); they
are the reference the one-pass step is tested against.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import NegativeBatch
from .model import CroppableModel
from .scoring import _backward, _forward, _scores, _vjp, batch_score, gather_slots

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

    w holds the w1/w2/w3 gradients and clamped the count of clamped teacher
    scores; both are known when the buffer is built. Table contributions
    are appended cheaply and summed by row id in finalized(), one
    segment_sum per table.
    """

    def __init__(self, w: dict[str, float] | None = None, clamped: int = 0):
        self._contribs: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}
        self.w = {"w1": 0.0, "w2": 0.0, "w3": 0.0} if w is None else w
        self.clamped = clamped

    def add(self, table: str, ids: np.ndarray, grads: np.ndarray) -> None:
        self._contribs.setdefault(table, []).append((ids, grads))

    def finalized(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Per table: (unique row ids, accumulated gradient block)."""
        return {table: segment_sum(contribs) for table, contribs in self._contribs.items()}


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
        self.kind, self.norm, self.width = model.score_fn.kind, model.score_fn.norm, model.width
        self.parts, self.saved = _forward(self.kind, vecs)
        self._scores: dict[int, np.ndarray] = {}

    def _prefix(self, idx: int) -> tuple:
        d = self.width(idx)
        return tuple(p[:, :d] for p in self.parts)

    def scores(self, idx: int) -> np.ndarray:
        """Scores of sub-model idx, one per triple (positives first)."""
        if idx not in self._scores:
            self._scores[idx] = _scores(self.kind, self.norm, self._prefix(idx))
        return self._scores[idx]

    def grads(self, dscores: dict[int, np.ndarray], buf: GradBuffer) -> GradBuffer:
        """Add the table gradients of sum over idx of dscores[idx] . scores(idx) to buf.

        dscores must hold the batch's own index i: its full-width block is
        the accumulator the narrower ones add into. Returns buf.
        """
        g = None
        for idx in sorted(dscores, reverse=True):
            d = self.width(idx)
            blocks = _vjp(self.kind, self.norm, self._prefix(idx), self.scores(idx), dscores[idx])
            if g is None:
                g = list(blocks)
            else:
                for acc, block in zip(g, blocks):
                    acc[:, :d] += block
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


def class_mean_bce(pos_scores, neg_scores):
    """Per-class-mean BCE value and d/d(score) for positives and negatives."""
    return _ei_term(pos_scores, neg_scores)[:3]


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


def _ei_weights(teacher_scores, w: float, mode: str, positive: bool):
    """EI weights from teacher scores: softmax of w/g(s) (positives) or w*g(s).

    Returns (weights, d weights / d w, clamped teacher scores). The logits
    are w * a with a = 1/g or g, so d w_j / d w follows from the softmax
    Jacobian. w / g is kept as written: w * (1/g) rounds differently.
    """
    g, clamped = _g_of(np.asarray(teacher_scores, dtype=np.float64).ravel(), mode)
    if positive:
        weights, a = _softmax(w / g), 1.0 / g
    else:
        weights, a = _softmax(w * g), g
    return weights, weights * (a - float(np.dot(weights, a))), clamped


def ei_weights_pos(teacher_scores, w1: float, i: int, mode: str = "sigmoid"):
    """Per-positive weights (Eq.-style): softmax over the batch of w1/g(s).

    i = 1 has no teacher and returns uniform weights. Higher teacher scores
    give lower weights (for w1 > 0): triples the smaller sub-model already
    gets right matter less.
    """
    return _uniform(np.size(teacher_scores)) if i == 1 else _ei_weights(teacher_scores, w1, mode, True)[0]


def ei_weights_neg(teacher_scores, w2: float, i: int, mode: str = "sigmoid"):
    """Per-negative weights: softmax over the batch of w2*g(s).

    Uniform at i = 1. Higher teacher scores give higher weights: negatives
    the smaller sub-model wrongly favors get extra attention.
    """
    return _uniform(np.size(teacher_scores)) if i == 1 else _ei_weights(teacher_scores, w2, mode, False)[0]


def _ei_term(s_pos, s_neg, teacher=None, w1: float = 0.0, w2: float = 0.0, mode: str = "sigmoid"):
    """Weighted BCE of one sub-model's positive and negative scores.

    teacher is (positive, negative) teacher scores, or None for uniform
    weights (i = 1, noEIM), which is the per-class-mean BCE. Returns
    (value, d/d(positive score), d/d(negative score), d/dw1, d/dw2,
    clamped teacher scores); the w gradients are 0.0 without a teacher.
    """
    lpos, lneg = softplus(-s_pos), softplus(s_neg)
    if teacher is None:
        pos_w, neg_w, dw1, dw2, clamped = _uniform(len(s_pos)), _uniform(len(s_neg)), 0.0, 0.0, 0
    else:
        pos_w, dpos_w, c1 = _ei_weights(teacher[0], w1, mode, True)
        neg_w, dneg_w, c2 = _ei_weights(teacher[1], w2, mode, False)
        dw1, dw2, clamped = float(np.dot(lpos, dpos_w)), float(np.dot(lneg, dneg_w)), c1 + c2
    value = float(np.sum(pos_w * lpos) + np.sum(neg_w * lneg))
    return value, pos_w * (sigmoid(s_pos) - 1.0), neg_w * sigmoid(s_neg), dw1, dw2, clamped


def _ml_term(prev: np.ndarray, cur: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean huber distance of neighbour scores and its d/d(prev); d/d(cur) is the negation."""
    resid = prev - cur
    return float(np.mean(huber(resid))), huber_grad(resid) / len(resid)


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
    entirely, turning this into the plain per-class-mean BCE. Sub-model i
    is gathered at d_i; the teacher is scored by a separate pass at d_{i-1}.
    """
    positives = np.asarray(positives, dtype=np.int64).reshape(-1, 3)
    b = len(positives)
    batch = PrefixBatch(model, i, positives, negatives)
    s = batch.scores(i)
    teacher = None
    if i > 1 and not force_uniform:
        t = batch_score(model, i - 1, np.concatenate([positives, np.stack(negatives.flat(), axis=1)]))
        teacher = (t[:b], t[b:])
    value, dpos, dneg, dw1, dw2, clamped = _ei_term(s[:b], s[b:], teacher, model.w1, model.w2, mode)
    buf = GradBuffer({"w1": dw1, "w2": dw2, "w3": 0.0}, clamped)
    return value, batch.grads({i: np.concatenate([dpos, dneg])}, buf)


def mutual_learning_loss(
    model: CroppableModel, i: int, positives: np.ndarray, negatives: NegativeBatch
) -> tuple[float, GradBuffer]:
    """Huber distance between neighbor sub-model scores, mean-reduced.

    Covers the batch positives and negatives jointly. Gradients flow into
    both sub-model i-1 and sub-model i (each learns from the other); each
    is gathered at its own width.
    """
    if i < 2:
        raise ValueError("mutual learning needs a neighbor pair, i >= 2")
    prev = PrefixBatch(model, i - 1, positives, negatives)
    cur = PrefixBatch(model, i, positives, negatives)
    value, dprev = _ml_term(prev.scores(i - 1), cur.scores(i))
    buf = prev.grads({i - 1: dprev}, GradBuffer())
    return value, cur.grads({i: -dprev}, buf)


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
    b = len(np.asarray(positives).reshape(-1, 3))
    batch = PrefixBatch(model, index, positives, negatives)

    ei_indices = [index]
    if pair_mode == "pair" and index >= 2:
        ei_indices.append(index - 1)

    w = {"w1": 0.0, "w2": 0.0, "w3": 0.0}
    clamped = 0
    dscores: dict[int, np.ndarray] = {}
    ei_values: dict[int, float] = {}
    lambdas: dict[int, float] = {}
    total = 0.0
    for idx in ei_indices:
        s = batch.scores(idx)
        teacher = None
        if idx > 1 and not no_eim:
            t = batch.scores(idx - 1)
            teacher = (t[:b], t[b:])
        value, dpos, dneg, dw1, dw2, c = _ei_term(s[:b], s[b:], teacher, model.w1, model.w2, ei_mode)
        if no_dlw:
            lam, dlam = 1.0, 0.0
        else:
            ratio = model.width(idx) / model.dim
            lam = float(np.exp(model.w3 * ratio))
            dlam = ratio * lam
        dscores[idx] = lam * np.concatenate([dpos, dneg])
        w["w1"] += lam * dw1
        w["w2"] += lam * dw2
        w["w3"] += float(dlam * value)
        clamped += c
        ei_values[idx] = value
        lambdas[idx] = lam
        total += lam * value

    ml_value = None
    if index >= 2 and not no_mlm:
        ml_value, dprev = _ml_term(batch.scores(index - 1), batch.scores(index))
        dscores[index - 1] = dscores.get(index - 1, 0.0) + dprev
        dscores[index] = dscores[index] - dprev
        total += ml_value

    buf = batch.grads(dscores, GradBuffer(w, clamped))
    breakdown = LossBreakdown(
        index=index,
        total=total,
        ei=ei_values,
        ml=ml_value,
        lambdas=lambdas,
        clamped=clamped,
    )
    return breakdown, buf
