"""Filtered link-prediction evaluation, metrics, and report emission.

For each test triple both sides are ranked: the head is replaced by every
entity, known-true competitors (from train+valid+test) are filtered out,
the gold entity is re-admitted, and the rank is 1 + #strictly-better +
#ties/2 (mean tie handling, gold excluded from the tie count). The tail
side works likewise. The triple's rank is the arithmetic mean of the two
side ranks, and MRR/Hit@k aggregate that mean rank (reciprocal taken after
averaging).

Ranking parallelizes across triples; results land in index-addressed
arrays, so thread count never changes the numbers.
"""
from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .atomic import atomic_write
from .data import Dataset
from .model import CroppableModel, param_count
from .scoring import one_vs_all_scores, prefix_tables64

HIT_KS = (1, 3, 10)


@dataclass
class RankOutcome:
    """Filtered ranks of one triple (mean tie handling gives halves)."""

    triple: tuple[int, int, int]
    rank_head: float
    rank_tail: float

    @property
    def mean_rank(self) -> float:
        return 0.5 * (self.rank_head + self.rank_tail)


@dataclass
class MetricsReport:
    """Aggregated metrics of one sub-model on one split."""

    dim: int
    mrr: float
    hit_at: dict[int, float]
    param_count: int
    effi: float
    split: str
    num_triples: int
    mean_ranks: np.ndarray = field(repr=False, compare=False)  # per triple, in split order


class _Evaluator:
    """Caches float64 prefix tables for repeated ranking at one width."""

    def __init__(self, model: CroppableModel, d: int, dataset: Dataset):
        self.dim = d
        self.tables = prefix_tables64(model, d)
        self.kind = model.score_fn.kind
        self.norm = model.score_fn.norm
        self.dataset = dataset

    def rank(self, triple, side: str) -> float:
        h, r, t = (int(x) for x in triple)
        scores = one_vs_all_scores(self.tables, self.kind, self.norm, side, (h, r, t))
        if side == "head":
            gold, known = h, self.dataset.filter.heads(r, t)
        else:
            gold, known = t, self.dataset.filter.tails(h, r)
        gold_score = scores[gold]
        if not math.isfinite(gold_score):
            raise ValueError(
                f"non-finite gold score {gold_score} at dim {self.dim} ({side} side of triple {(h, r, t)})"
            )
        # NaN compares neither greater nor equal, which filters the known-true
        # candidates out; then the gold is re-admitted
        scores[known] = np.nan
        scores[gold] = gold_score
        greater = int(np.count_nonzero(scores > gold_score))
        equal = int(np.count_nonzero(scores == gold_score)) - 1
        return 1.0 + greater + 0.5 * equal

    def side_ranks(self, triples: np.ndarray, threads: int = 1) -> np.ndarray:
        """(T, 2) head and tail ranks of each triple: the one ranking loop."""
        triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
        out = np.empty((len(triples), 2), dtype=np.float64)

        def work(span):
            lo, hi = span
            for j in range(lo, hi):
                out[j] = self.rank(triples[j], "head"), self.rank(triples[j], "tail")

        if threads <= 1 or len(triples) < 2:
            work((0, len(triples)))
        else:
            chunk = max(1, -(-len(triples) // threads))
            spans = [(lo, min(lo + chunk, len(triples))) for lo in range(0, len(triples), chunk)]
            with ThreadPoolExecutor(max_workers=threads) as pool:
                list(pool.map(work, spans))
        return out


def rank_triple(model: CroppableModel, i: int, triple, dataset: Dataset, side: str) -> float:
    """Filtered rank of one triple at sub-model i, for one side."""
    return _Evaluator(model, model.dims[i - 1], dataset).rank(triple, side)


def rank_outcomes(model: CroppableModel, i: int, dataset: Dataset, split: str = "test") -> list[RankOutcome]:
    """Per-triple rank outcomes for a whole split."""
    triples = dataset.split(split)
    ranks = _Evaluator(model, model.dims[i - 1], dataset).side_ranks(triples)
    return [
        RankOutcome(triple=tuple(trip), rank_head=head, rank_tail=tail)
        for trip, (head, tail) in zip(triples.tolist(), ranks.tolist())
    ]


def link_prediction(
    model: CroppableModel, i: int, dataset: Dataset, split: str = "test", threads: int = 1
) -> MetricsReport:
    """MRR, Hit@k, parameter count, and Effi of sub-model i on a split."""
    triples = dataset.split(split)
    if len(triples) == 0:
        raise ValueError(f"cannot evaluate on empty split {split!r}")
    d = model.dims[i - 1]
    sides = _Evaluator(model, d, dataset).side_ranks(triples, threads=threads)
    ranks = 0.5 * (sides[:, 0] + sides[:, 1])
    mrr = float(np.mean(1.0 / ranks))
    hits = {k: float(np.mean(ranks <= k)) for k in HIT_KS}
    params = param_count(model, i)
    return MetricsReport(
        dim=d,
        mrr=mrr,
        hit_at=hits,
        param_count=params,
        effi=mrr / params,
        split=split,
        num_triples=int(len(triples)),
        mean_ranks=ranks,
    )


@dataclass
class ArrResult:
    """Ability-retention ratio plus the per-sub-model correctness matrix."""

    value: float
    matrix: np.ndarray  # (num triples, n) booleans: mean rank <= 10
    dims: tuple[int, ...]
    num_with_correct: int
    include_vacuous: bool


def retention_value(matrix: np.ndarray, include_vacuous: bool = False) -> tuple[float, int]:
    """Retention ratio of a correctness matrix (triples x sub-models).

    A triple whose smallest correct index is i* is retained iff every
    larger sub-model is also correct. Returns (ratio, number of triples
    with at least one correct sub-model). Triples no sub-model gets right
    are excluded from the denominator unless include_vacuous is set (then
    they count as retained over the full denominator).
    """
    matrix = np.asarray(matrix, dtype=bool)
    any_correct = matrix.any(axis=1)
    # correct from the first correct sub-model on: the running OR adds nothing
    retained = any_correct & (np.logical_or.accumulate(matrix, axis=1) == matrix).all(axis=1)
    n_correct = int(np.count_nonzero(any_correct))
    n_retained = int(np.count_nonzero(retained))
    if include_vacuous:
        denom = len(matrix)
        numer = n_retained + (len(matrix) - n_correct)
    else:
        denom = n_correct
        numer = n_retained
    return (numer / denom if denom else 0.0), n_correct


def arr(
    model: CroppableModel,
    dataset: Dataset,
    split: str = "test",
    threads: int = 1,
    include_vacuous: bool = False,
) -> ArrResult:
    """Fraction of triples whose correctness, once gained, is never lost."""
    reports = [link_prediction(model, i, dataset, split, threads) for i in range(1, model.n + 1)]
    return arr_from_reports(reports, include_vacuous)


def arr_from_reports(reports: list[MetricsReport], include_vacuous: bool = False) -> ArrResult:
    """ARR from the link-prediction reports of every sub-model on one split.

    correct(i) means filtered mean rank <= 10 at sub-model i; the
    retention rule itself lives in retention_value.
    """
    matrix = np.stack([r.mean_ranks <= 10.0 for r in reports], axis=1)
    value, n_correct = retention_value(matrix, include_vacuous)
    return ArrResult(
        value=float(value),
        matrix=matrix,
        dims=tuple(r.dim for r in reports),
        num_with_correct=n_correct,
        include_vacuous=include_vacuous,
    )


def write_arr_matrix(result: ArrResult, path: str | Path) -> None:
    """Correctness matrix as TSV lines `triple_index<TAB>bitvector`."""
    with atomic_write(path) as fh:
        fh.write("# dims: " + ",".join(str(d) for d in result.dims) + "\n")
        for j, row in enumerate(result.matrix):
            bits = "".join("1" if b else "0" for b in row)
            fh.write(f"{j}\t{bits}\n")


def _report_row(report: MetricsReport) -> dict:
    return {
        "dim": report.dim,
        "params": report.param_count,
        "mrr": report.mrr,
        "hit1": report.hit_at[1],
        "hit3": report.hit_at[3],
        "hit10": report.hit_at[10],
        "effi": report.effi,
    }


def emit_report(reports, path: str | Path, fmt: str = "csv") -> None:
    """Write per-dimension metric rows, sorted ascending by dim.

    CSV columns: dim,params,mrr,hit1,hit3,hit10,effi (floats at 6
    significant digits); JSON mirrors the same rows.
    """
    reports = sorted(reports, key=lambda r: r.dim)
    if not reports:
        raise ValueError("no reports to emit")
    rows = [_report_row(r) for r in reports]
    if fmt == "csv":
        lines = ["dim,params,mrr,hit1,hit3,hit10,effi"]
        for row in rows:
            lines.append(
                f"{row['dim']},{row['params']},{row['mrr']:.6g},{row['hit1']:.6g},"
                f"{row['hit3']:.6g},{row['hit10']:.6g},{row['effi']:.6g}"
            )
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        text = json.dumps(rows, indent=2, sort_keys=True) + "\n"
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    with atomic_write(path) as fh:
        fh.write(text)
