"""Filtered ranking against a sort-based oracle; metric aggregation; reports."""
import csv
import json

import numpy as np
import pytest

from cropkge.data import build_filter_index, load_dataset, make_dataset, resolve_dataset
from cropkge.evaluate import (
    _Evaluator,
    arr,
    emit_report,
    link_prediction,
    rank_outcomes,
    rank_triple,
    retention_value,
    write_arr_matrix,
)
from cropkge.model import ScoreFunction, init_model, param_count_for
from cropkge.scoring import batch_score

from conftest import rand_dataset, rand_model


def sort_rank_oracle(scores_kept, gold_score):
    """Average 1-based position of the gold score among kept candidates."""
    order = np.sort(scores_kept)[::-1]
    first = np.searchsorted(-order, -gold_score, side="left") + 1
    last = np.searchsorted(-order, -gold_score, side="right")
    return (first + last) / 2.0


def test_constant_model_rank_is_half_candidates():
    ds = rand_dataset(seed=31)
    m = rand_model("transe", num_entities=ds.num_entities, num_relations=ds.num_relations)
    for t in m.tables.values():
        t[:] = 0.0
    trip = ds.test[0]
    for side, known in (("tail", ds.filter.tails(trip[0], trip[1])),
                        ("head", ds.filter.heads(trip[1], trip[2]))):
        f = ds.num_entities - len(known) + 1  # filtered out, gold re-admitted
        assert rank_triple(m, m.n, trip, ds, side=side) == (f + 1) / 2


def test_rank_matches_sort_oracle_everywhere(rng):
    for trial in range(8):
        ds = rand_dataset(seed=300 + trial, num_entities=12, num_relations=3,
                          n_train=40, n_valid=8, n_test=8)
        kind = ["transe", "simple", "rotate", "pairre"][trial % 4]
        m = rand_model(kind, dims=(2, 4), num_entities=12, num_relations=3,
                       seed=trial, init_range=0.3)
        for i in (1, 2):
            for trip in ds.test:
                h, r, t = (int(x) for x in trip)
                for side in ("head", "tail"):
                    if side == "tail":
                        known = ds.filter.tails(h, r)
                        cands = [c for c in range(12) if c == t or c not in set(known)]
                        triples = np.array([[h, r, c] for c in cands])
                        gold_pos = cands.index(t)
                    else:
                        known = ds.filter.heads(r, t)
                        cands = [c for c in range(12) if c == h or c not in set(known)]
                        triples = np.array([[c, r, t] for c in cands])
                        gold_pos = cands.index(h)
                    scores = batch_score(m, i, triples)
                    want = sort_rank_oracle(scores, scores[gold_pos])
                    got = rank_triple(m, i, trip, ds, side=side)
                    assert got == want, (trial, i, trip, side)


def test_mean_rank_and_mrr_aggregation():
    ds = rand_dataset(seed=32)
    m = rand_model("transe", num_entities=ds.num_entities, num_relations=ds.num_relations,
                   seed=9)
    outs = rank_outcomes(m, m.n, ds, split="test")
    assert len(outs) == len(ds.test)
    for o in outs:
        assert o.mean_rank == (o.rank_head + o.rank_tail) / 2
        assert o.rank_head == rank_triple(m, m.n, o.triple, ds, side="head")
    rep = link_prediction(m, m.n, ds, split="test")
    mean_ranks = np.array([o.mean_rank for o in outs])
    assert rep.mrr == pytest.approx(float(np.mean(1.0 / mean_ranks)), rel=1e-12)
    for k in (1, 3, 10):
        assert rep.hit_at[k] == pytest.approx(float(np.mean(mean_ranks <= k)), rel=1e-12)
    assert rep.hit_at[1] <= rep.hit_at[3] <= rep.hit_at[10]
    assert rep.num_triples == len(ds.test)


def test_rank_outcomes_are_the_ranks_behind_link_prediction():
    ds = rand_dataset(seed=39, num_entities=12, n_train=40, n_valid=8, n_test=10)
    m = rand_model("transe", num_entities=ds.num_entities, num_relations=ds.num_relations, seed=4)
    m.tables["entity"][5] = m.tables["entity"][6]  # exact ties
    # threaded runs first, so a row a thread skips cannot hold a freed buffer's right answer
    by_threads = {t: (_Evaluator(m, m.dim, ds).side_ranks(ds.test, threads=t),
                      link_prediction(m, m.n, ds, split="test", threads=t).mean_ranks) for t in (4, 1)}
    outs = rank_outcomes(m, m.n, ds, split="test")
    assert [o.triple for o in outs] == [tuple(t) for t in ds.test.tolist()]
    for sides, mean_ranks in by_threads.values():
        np.testing.assert_array_equal(sides, [[o.rank_head, o.rank_tail] for o in outs])
        np.testing.assert_array_equal(mean_ranks, [o.mean_rank for o in outs])


def test_report_params_and_effi():
    ds = rand_dataset(seed=33)
    m = rand_model("rotate", dims=(2, 4), num_entities=ds.num_entities,
                   num_relations=ds.num_relations)
    rep = link_prediction(m, 1, ds, split="valid")
    want_params = param_count_for(ScoreFunction("rotate"), ds.num_entities,
                                  ds.num_relations, 2)
    assert rep.dim == 2
    assert rep.param_count == want_params
    assert rep.effi == pytest.approx(rep.mrr / want_params, rel=1e-12)
    assert rep.split == "valid"


def test_threads_do_not_change_results():
    ds = rand_dataset(seed=34)
    m = rand_model("simple", num_entities=ds.num_entities, num_relations=ds.num_relations)
    one = link_prediction(m, m.n, ds, split="test", threads=1)
    four = link_prediction(m, m.n, ds, split="test", threads=4)
    assert one.mrr == four.mrr
    assert one.hit_at == four.hit_at


def test_empty_split_rejected():
    tr = np.array([[0, 0, 1], [1, 0, 2]])
    ds = make_dataset(tr, tr[:0], tr[:0])
    m = rand_model("transe", num_entities=3, num_relations=1)
    with pytest.raises(ValueError, match="empty"):
        link_prediction(m, m.n, ds, split="test")
    with pytest.raises(ValueError, match="split"):
        link_prediction(m, m.n, ds, split="dev")


def test_retention_value_worked_example():
    # correct-sets {M1,M2,M3}, {M2}, {M2,M3} over a 3-dim schedule
    matrix = np.array([
        [True, True, True],
        [False, True, False],
        [False, True, True],
    ])
    value, denom = retention_value(matrix)
    assert value == pytest.approx(2 / 3)
    assert denom == 3


def test_retention_value_edge_cases():
    all_good = np.ones((4, 3), dtype=bool)
    assert retention_value(all_good) == (1.0, 4)
    none = np.zeros((4, 3), dtype=bool)
    assert retention_value(none) == (0.0, 0)
    # monotone-in-i matrices always retain
    mono = np.array([[False, True, True], [False, False, True]])
    assert retention_value(mono)[0] == 1.0
    single = np.array([[True], [False], [True]])
    assert retention_value(single) == (1.0, 2)  # n=1 is vacuously retained


def test_retention_value_include_vacuous():
    matrix = np.array([
        [True, True, True],   # retained
        [False, True, False], # lost
        [False, False, False],# never correct
    ])
    strict, n_correct = retention_value(matrix)
    assert (strict, n_correct) == (pytest.approx(1 / 2), 2)
    loose, n_correct2 = retention_value(matrix, include_vacuous=True)
    assert n_correct2 == 2  # second element always counts triples with a hit
    assert loose == pytest.approx(2 / 3)  # vacuous triple retained over full count


def test_arr_on_live_model_matches_manual_matrix():
    ds = rand_dataset(seed=35)
    m = rand_model("transe", dims=(2, 4), num_entities=ds.num_entities,
                   num_relations=ds.num_relations, seed=4)
    res = arr(m, ds, split="test")
    manual = np.zeros((len(ds.test), m.n), dtype=bool)
    for j, trip in enumerate(ds.test):
        for i in range(1, m.n + 1):
            rh = rank_triple(m, i, trip, ds, side="head")
            rt = rank_triple(m, i, trip, ds, side="tail")
            manual[j, i - 1] = (rh + rt) / 2 <= 10
    np.testing.assert_array_equal(res.matrix, manual)
    want, want_denom = retention_value(manual)
    assert res.value == want
    assert res.num_with_correct == want_denom
    assert res.dims == m.dims


def test_write_arr_matrix_format(tmp_path):
    ds = rand_dataset(seed=36)
    m = rand_model("transe", dims=(2, 4), num_entities=ds.num_entities,
                   num_relations=ds.num_relations)
    res = arr(m, ds, split="test")
    path = tmp_path / "matrix.tsv"
    write_arr_matrix(res, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# dims: 2,4"
    assert len(lines) == 1 + len(ds.test)
    j, bits = lines[1].split("\t")
    assert j == "0"
    assert set(bits) <= {"0", "1"}
    assert len(bits) == 2
    got = np.array([[c == "1" for c in row.split("\t")[1]] for row in lines[1:]])
    np.testing.assert_array_equal(got, res.matrix)


def test_emit_report_csv_and_json(tmp_path):
    ds = rand_dataset(seed=37)
    m = rand_model("transe", dims=(2, 4), num_entities=ds.num_entities,
                   num_relations=ds.num_relations)
    reports = [link_prediction(m, i, ds, split="test") for i in (2, 1)]
    csv_path = tmp_path / "report.csv"
    emit_report(reports, csv_path, fmt="csv")
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["dim"] for r in rows] == ["2", "4"]  # sorted ascending
    for row, rep in zip(rows, sorted(reports, key=lambda r: r.dim)):
        assert int(row["params"]) == rep.param_count
        assert float(row["mrr"]) == pytest.approx(rep.mrr, rel=1e-5)
        assert float(row["hit10"]) == pytest.approx(rep.hit_at[10], rel=1e-5)
        assert float(row["effi"]) == pytest.approx(rep.effi, rel=1e-5)

    json_path = tmp_path / "report.json"
    emit_report(reports, json_path, fmt="json")
    data = json.loads(json_path.read_text())
    assert [d["dim"] for d in data] == [2, 4]
    assert data[0]["mrr"] == pytest.approx(reports[1].mrr, rel=1e-12)

    with pytest.raises(ValueError):
        emit_report([], csv_path, fmt="csv")
    with pytest.raises(ValueError):
        emit_report(reports, csv_path, fmt="xml")


def test_filtered_rank_never_exceeds_unfiltered(rng):
    ds = rand_dataset(seed=38, num_entities=10, num_relations=2,
                      n_train=30, n_valid=5, n_test=5)
    m = rand_model("pairre", num_entities=10, num_relations=2, seed=8)
    for trip in ds.test:
        h, r, t = (int(x) for x in trip)
        scores = batch_score(m, m.n, np.array([[h, r, c] for c in range(10)]))
        unfiltered = sort_rank_oracle(scores, scores[t])
        assert rank_triple(m, m.n, trip, ds, side="tail") <= unfiltered


def test_non_finite_gold_score_raises_naming_the_dim():
    ds = load_dataset(resolve_dataset("synth"))
    m = init_model(ScoreFunction("transe"), (8, 16), ds.num_entities, ds.num_relations,
                   np.random.default_rng(0))
    m.tables["entity"][:] = np.nan
    with pytest.raises(ValueError, match="non-finite gold score.*dim 8"):
        link_prediction(m, 1, ds, split="test")


def test_nan_candidates_keep_rank_in_bounds():
    ds = rand_dataset(seed=37)
    m = rand_model("transe", num_entities=ds.num_entities, num_relations=ds.num_relations, seed=3)
    trip = ds.test[0]
    h, r, t = (int(x) for x in trip)
    others = [e for e in range(ds.num_entities) if e not in (h, t)]
    m.tables["entity"][others[:3]] = np.nan
    for side, known in (("tail", ds.filter.tails(h, r)), ("head", ds.filter.heads(r, t))):
        kept = ds.num_entities - len(set(known.tolist()) - {h if side == "head" else t})
        rank = rank_triple(m, m.n, trip, ds, side=side)
        assert 1.0 <= rank <= kept
