"""Triple scoring and analytic gradients for the four score functions.

All math is done in float64 regardless of table storage dtype. Scores at
sub-model i read only the first d_i columns of each table, so they are
unchanged by cropping. Gradients are returned per participating table row
(and, for rotate, with respect to the relation phase, chain rule through
cos/sin), which is all the trainer needs; no autodiff framework involved.

The L1 norm option treats rotate's real and imaginary residual parts as
separate coordinates; its subgradient at 0 is taken to be 0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import CroppableModel

# slot name -> (table name, triple field) per score function
SLOTS: dict[str, tuple[tuple[str, str, str], ...]] = {
    "transe": (("h", "entity", "h"), ("r", "relation", "r"), ("t", "entity", "t")),
    "simple": (
        ("h_head", "entity_head", "h"),
        ("rel", "relation", "r"),
        ("t_tail", "entity_tail", "t"),
        ("t_head", "entity_head", "t"),
        ("rel_inv", "relation_inv", "r"),
        ("h_tail", "entity_tail", "h"),
    ),
    "rotate": (
        ("h_re", "entity_re", "h"),
        ("h_im", "entity_im", "h"),
        ("phase", "relation_phase", "r"),
        ("t_re", "entity_re", "t"),
        ("t_im", "entity_im", "t"),
    ),
    "pairre": (
        ("h", "entity", "h"),
        ("r_head", "relation_head", "r"),
        ("r_tail", "relation_tail", "r"),
        ("t", "entity", "t"),
    ),
}


@dataclass
class ScoreGrad:
    """Score value plus dense gradient vectors for every row the score read.

    partials maps (table name, row id) -> gradient vector over the active
    prefix; rows appearing in several slots (e.g. h == t) are summed.
    """

    value: float
    partials: dict[tuple[str, int], np.ndarray]


def _neg_norm(res: np.ndarray, norm: str) -> np.ndarray:
    """Score -||res|| over the last axis."""
    if norm == "l2":
        return -np.sqrt(np.sum(res * res, axis=-1))
    return -np.sum(np.abs(res), axis=-1)


def _neg_norm_vjp(res: np.ndarray, norm: str, scores: np.ndarray, ds: np.ndarray) -> np.ndarray:
    """ds * d(score)/d(res) for score = -||full residual||.

    res may be one part of the residual (rotate's real or imaginary half):
    the L2 derivative is res scaled per row by -ds/||full residual||, and
    the L1 one is -sign(res) * ds. Subgradients at 0 are 0.
    """
    if norm == "l2":
        nrm = -scores
        return res * (-ds / np.where(nrm == 0.0, 1.0, nrm))[..., None]
    return np.sign(res) * -ds[..., None]


def _forward(kind: str, vecs: dict[str, np.ndarray]):
    """Per-column score terms plus what the backward pass reuses.

    Returns (parts, saved). parts are the residual (transe, pairre), its real
    and imaginary halves (rotate) or the two triple products (simple); the
    score at any width d reads only their first d columns.
    """
    if kind == "transe":
        return (vecs["h"] + vecs["r"] - vecs["t"],), None
    if kind == "pairre":
        return (vecs["h"] * vecs["r_head"] - vecs["t"] * vecs["r_tail"],), vecs
    if kind == "simple":
        p1 = vecs["h_head"] * vecs["rel"] * vecs["t_tail"]
        p2 = vecs["t_head"] * vecs["rel_inv"] * vecs["h_tail"]
        return (p1, p2), vecs
    if kind == "rotate":
        c = np.cos(vecs["phase"])
        s = np.sin(vecs["phase"])
        pr = vecs["h_re"] * c - vecs["h_im"] * s
        pi = vecs["h_re"] * s + vecs["h_im"] * c
        return (pr - vecs["t_re"], pi - vecs["t_im"]), (c, s, pr, pi)
    raise ValueError(f"unknown score function kind {kind!r}")


def _scores(kind: str, norm: str, parts) -> np.ndarray:
    """Scores from forward parts, or from their first d columns.

    Row reductions over a column prefix p[:, :d] give the same bits as over
    a width-d block, so a score does not depend on the width it was cut
    from.
    """
    if kind == "simple":
        p1, p2 = parts
        return 0.5 * (np.sum(p1, axis=-1) + np.sum(p2, axis=-1))
    if kind == "rotate":
        return _neg_norm(np.concatenate(parts, axis=-1), norm)
    return _neg_norm(parts[0], norm)


def _vjp(kind: str, norm: str, parts, scores: np.ndarray, ds: np.ndarray):
    """ds * d(score)/d(part), one block per part; scores = _scores(kind, norm, parts)."""
    if kind == "simple":
        half = (0.5 * ds)[..., None]
        return tuple(half * np.ones(p.shape) for p in parts)
    return tuple(_neg_norm_vjp(p, norm, scores, ds) for p in parts)


def _backward(kind: str, saved, g):
    """Slot gradients from per-column gradients g of the forward parts.

    The map is linear in g, so summing d(loss)/d(part) over every width a
    step reads first and calling this once equals calling it per width.
    """
    if kind == "transe":
        (u,) = g
        return {"h": u, "r": u, "t": -u}
    if kind == "pairre":
        (u,) = g
        return {
            "h": u * saved["r_head"],
            "r_head": u * saved["h"],
            "t": -u * saved["r_tail"],
            "r_tail": -u * saved["t"],
        }
    if kind == "simple":
        g1, g2 = g
        return {
            "h_head": g1 * saved["rel"] * saved["t_tail"],
            "rel": g1 * saved["h_head"] * saved["t_tail"],
            "t_tail": g1 * saved["h_head"] * saved["rel"],
            "t_head": g2 * saved["rel_inv"] * saved["h_tail"],
            "rel_inv": g2 * saved["t_head"] * saved["h_tail"],
            "h_tail": g2 * saved["t_head"] * saved["rel_inv"],
        }
    ur, ui = g
    c, s, pr, pi = saved
    return {
        "h_re": ur * c + ui * s,
        "h_im": -ur * s + ui * c,
        "phase": -ur * pi + ui * pr,
        "t_re": -ur,
        "t_im": -ui,
    }


def _kernel(kind: str, vecs: dict[str, np.ndarray], norm: str, want_grad: bool):
    """Broadcast score kernel; returns (scores, slot gradients or None)."""
    parts, saved = _forward(kind, vecs)
    scores = _scores(kind, norm, parts)
    if not want_grad:
        return scores, None
    return scores, _backward(kind, saved, _vjp(kind, norm, parts, scores, np.ones_like(scores)))


def gather_slots(model: CroppableModel, i: int, h, r, t, check: bool = True):
    """Float64 slot vectors and row ids for a triple batch at sub-model i.

    Returns (vecs, ids, tables): slot -> (N, d_i) vectors, slot -> (N,) row
    ids, slot -> table name.
    """
    d = model.width(i)
    h = np.atleast_1d(np.asarray(h, dtype=np.int64))
    r = np.atleast_1d(np.asarray(r, dtype=np.int64))
    t = np.atleast_1d(np.asarray(t, dtype=np.int64))
    if check:
        ne, nr = model.num_entities, model.num_relations
        for arr, limit, what in ((h, ne, "entity"), (t, ne, "entity"), (r, nr, "relation")):
            if arr.size and (arr.min() < 0 or arr.max() >= limit):
                raise ValueError(f"{what} id out of range [0, {limit})")
    fields = {"h": h, "r": r, "t": t}
    vecs, ids, tables = {}, {}, {}
    for slot, tab, fld in SLOTS[model.score_fn.kind]:
        rows = fields[fld]
        vecs[slot] = model.tables[tab][rows, :d].astype(np.float64)
        ids[slot] = rows
        tables[slot] = tab
    return vecs, ids, tables


def batch_score(model: CroppableModel, i: int, triples) -> np.ndarray:
    """Scores of an (N, 3) triple batch at sub-model i, order preserving."""
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    vecs, _, _ = gather_slots(model, i, triples[:, 0], triples[:, 1], triples[:, 2])
    scores, _ = _kernel(model.score_fn.kind, vecs, model.score_fn.norm, want_grad=False)
    return scores


def score(model: CroppableModel, i: int, triple) -> float:
    """Score of one (h, r, t) triple at sub-model i."""
    return float(batch_score(model, i, np.asarray(triple).reshape(1, 3))[0])


def score_grad(model: CroppableModel, i: int, triple) -> ScoreGrad:
    """Score plus analytic gradients for every table row the score reads."""
    triple = np.asarray(triple, dtype=np.int64).reshape(3)
    vecs, ids, tables = gather_slots(model, i, triple[0], triple[1], triple[2])
    scores, grads = _kernel(model.score_fn.kind, vecs, model.score_fn.norm, want_grad=True)
    partials: dict[tuple[str, int], np.ndarray] = {}
    for slot, g in grads.items():
        key = (tables[slot], int(ids[slot][0]))
        vec = np.array(g[0], dtype=np.float64)
        if key in partials:
            partials[key] = partials[key] + vec
        else:
            partials[key] = vec
    return ScoreGrad(value=float(scores[0]), partials=partials)


def prefix_tables64(model: CroppableModel, d: int) -> dict[str, np.ndarray]:
    """Float64 copies of every table truncated to width d (evaluation use)."""
    if not 1 <= d <= model.dim:
        raise ValueError(f"prefix width {d} out of range 1..{model.dim}")
    return {k: v[:, :d].astype(np.float64) for k, v in model.tables.items()}


def one_vs_all_scores(
    tables64: dict[str, np.ndarray], kind: str, norm: str, side: str, triple
) -> np.ndarray:
    """Scores of a triple with one side replaced by every entity.

    tables64 are float64 prefix tables from prefix_tables64. side is
    "head" or "tail"; the returned vector is indexed by candidate entity id.
    """
    if side not in ("head", "tail"):
        raise ValueError(f"side must be 'head' or 'tail', got {side!r}")
    h, r, t = (int(x) for x in triple)
    fixed = {"h": h, "r": r, "t": t}
    vary = "h" if side == "head" else "t"
    vecs = {}
    for slot, tab, fld in SLOTS[kind]:
        table = tables64[tab]
        if fld == vary:
            vecs[slot] = table
        else:
            vecs[slot] = table[fixed[fld]][None, :]
    scores, _ = _kernel(kind, vecs, norm, want_grad=False)
    return scores
