"""Independent reference code for the benchmark's correctness checks.

Nothing here calls into cropkge. The filter sets come from the raw TSV
files; transe scores follow the README definition, -||h + r - t||_2 in
float64 from the float32 tables, with the same elementwise operation order
as a one-vs-all pass, so equal inputs give equal bits. A side's rank is the
"realistic" rank, the mean of the optimistic and pessimistic ranks over the
kept candidates: 1 + #higher + #ties / 2, with the gold excluded from the
ties.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

SPLITS = ("train", "valid", "test")
HIT_KS = (1, 3, 10)
BLOCK = 8


@dataclass
class RawGraph:
    """Triples encoded in first-seen order, plus the known-true filter sets."""

    entity_ids: dict[str, int]
    relation_ids: dict[str, int]
    splits: dict[str, np.ndarray]
    heads_of: dict[tuple[int, int], list[int]]
    tails_of: dict[tuple[int, int], list[int]]

    @property
    def num_entities(self) -> int:
        return len(self.entity_ids)


def read_graph(directory: Path) -> RawGraph:
    ents: dict[str, int] = {}
    rels: dict[str, int] = {}
    splits = {}
    heads_of: dict[tuple[int, int], set[int]] = {}
    tails_of: dict[tuple[int, int], set[int]] = {}
    for name in SPLITS:
        rows = []
        with open(directory / f"{name}.txt", encoding="utf-8") as fh:
            for line in fh:
                line = line.rstrip("\n")
                if not line:
                    continue
                hs, rs, ts = line.split("\t")
                h = ents.setdefault(hs, len(ents))
                r = rels.setdefault(rs, len(rels))
                t = ents.setdefault(ts, len(ents))
                rows.append((h, r, t))
                heads_of.setdefault((r, t), set()).add(h)
                tails_of.setdefault((h, r), set()).add(t)
        splits[name] = np.array(rows, dtype=np.int64).reshape(-1, 3)
    return RawGraph(
        entity_ids=ents,
        relation_ids=rels,
        splits=splits,
        heads_of={k: sorted(v) for k, v in heads_of.items()},
        tails_of={k: sorted(v) for k, v in tails_of.items()},
    )


@dataclass
class SideRanks:
    """Per-triple head and tail ranks and kept-candidate counts at one width."""

    head: np.ndarray
    tail: np.ndarray
    kept_head: np.ndarray
    kept_tail: np.ndarray

    @property
    def mean(self) -> np.ndarray:
        return 0.5 * (self.head + self.tail)


def _realistic(scores: np.ndarray, gold: np.ndarray, keep: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(scores)):
        raise ValueError("non-finite score in oracle ranking")
    g = scores[np.arange(len(gold)), gold][:, None]
    higher = np.count_nonzero((scores > g) & keep, axis=1)
    tied = np.count_nonzero((scores == g) & keep, axis=1)  # includes the gold
    optimistic = 1 + higher
    pessimistic = higher + tied
    return 0.5 * (optimistic + pessimistic)


def transe_ranks(entity: np.ndarray, relation: np.ndarray, d: int, triples: np.ndarray,
                 graph: RawGraph) -> SideRanks:
    """Filtered transe L2 ranks of every triple, both sides, at width d."""
    ent = entity[:, :d].astype(np.float64)
    rel = relation[:, :d].astype(np.float64)
    n = len(triples)
    out = {key: np.empty(n) for key in ("head", "tail", "kept_head", "kept_tail")}
    for lo in range(0, n, BLOCK):
        block = triples[lo : lo + BLOCK]
        h, r, t = block[:, 0], block[:, 1], block[:, 2]
        for side, gold in (("head", h), ("tail", t)):
            if side == "head":
                res = (ent[None, :, :] + rel[r][:, None, :]) - ent[t][:, None, :]
            else:
                res = (ent[h] + rel[r])[:, None, :] - ent[None, :, :]
            scores = -np.sqrt(np.sum(res * res, axis=-1))
            keep = np.ones(scores.shape, dtype=bool)
            for j, (hj, rj, tj) in enumerate(block.tolist()):
                known = graph.heads_of[(rj, tj)] if side == "head" else graph.tails_of[(hj, rj)]
                keep[j, known] = False
                keep[j, gold[j]] = True
            out[side][lo : lo + len(block)] = _realistic(scores, gold, keep)
            out[f"kept_{side}"][lo : lo + len(block)] = keep.sum(axis=1)
    return SideRanks(**out)


def summary(mean_ranks: np.ndarray) -> dict:
    """MRR and Hit@k of per-triple mean ranks (reciprocal after averaging)."""
    out = {"mrr": float(np.mean(1.0 / mean_ranks))}
    for k in HIT_KS:
        out[f"hit{k}"] = float(np.mean(mean_ranks <= k))
    return out


def retention(matrix: np.ndarray) -> float:
    """Share of triples that, once correct at some width, stay correct above it."""
    with_correct = retained = 0
    for row in np.asarray(matrix, dtype=bool).tolist():
        if True not in row:
            continue
        with_correct += 1
        retained += all(row[row.index(True) :])
    return retained / with_correct if with_correct else 0.0


def random_mrr(kept_head: np.ndarray, kept_tail: np.ndarray) -> float:
    """Expected MRR when each side's rank is uniform over its kept candidates."""
    values = []
    for kh, kt in zip(kept_head.astype(int).tolist(), kept_tail.astype(int).tolist()):
        s = np.arange(2, kh + kt + 1)
        ways = np.minimum(s - 1, kh) - np.maximum(1, s - kt) + 1
        values.append(float(np.sum(ways * (2.0 / s))) / (kh * kt))
    return float(np.mean(values))


def rotate_scores(tables: dict[str, np.ndarray], d: int, triples: np.ndarray) -> np.ndarray:
    """RotatE L2 scores: -|h * exp(i phase) - t| over the first d complex dims."""
    h, r, t = triples[:, 0], triples[:, 1], triples[:, 2]
    head = tables["entity_re"][h, :d] + 1j * tables["entity_im"][h, :d].astype(np.float64)
    tail = tables["entity_re"][t, :d] + 1j * tables["entity_im"][t, :d].astype(np.float64)
    rot = np.exp(1j * tables["relation_phase"][r, :d].astype(np.float64))
    return -np.linalg.norm(head * rot - tail, axis=1)


def bce(pos_scores: np.ndarray, neg_scores: np.ndarray) -> float:
    """Per-class-mean binary cross-entropy of scores read as logits."""
    return float(np.mean(np.logaddexp(0.0, -pos_scores)) + np.mean(np.logaddexp(0.0, neg_scores)))
