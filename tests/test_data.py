"""Dataset loading, vocabulary encoding, filter index, negative sampling."""
import json
import re

import numpy as np
import pytest

from cropkge.data import (
    DATA_DIR_ENV,
    Dataset,
    NegativeBatch,
    build_filter_index,
    load_dataset,
    make_dataset,
    resolve_dataset,
    sample_negatives,
    write_stats,
)

from conftest import rand_dataset, rand_triples


def write_dataset(directory, train, valid, test):
    for name, rows in (("train", train), ("valid", valid), ("test", test)):
        with open(directory / f"{name}.txt", "w", encoding="utf-8") as fh:
            for h, r, t in rows:
                fh.write(f"{h}\t{r}\t{t}\n")


def test_first_seen_id_order(tmp_path):
    write_dataset(
        tmp_path,
        train=[("b", "likes", "a"), ("a", "knows", "c")],
        valid=[("c", "likes", "d")],
        test=[("d", "knows", "b")],
    )
    ds = load_dataset(tmp_path)
    assert ds.entity_names == ["b", "a", "c", "d"]
    assert ds.relation_names == ["likes", "knows"]
    assert ds.entity_ids == {"b": 0, "a": 1, "c": 2, "d": 3}
    np.testing.assert_array_equal(ds.train, [[0, 0, 1], [1, 1, 2]])
    np.testing.assert_array_equal(ds.valid, [[2, 0, 3]])
    np.testing.assert_array_equal(ds.test, [[3, 1, 0]])


def test_valid_only_entity_admitted(tmp_path):
    write_dataset(
        tmp_path,
        train=[("a", "r", "b")],
        valid=[("a", "r", "ghost")],
        test=[("b", "r", "a")],
    )
    ds = load_dataset(tmp_path)
    assert "ghost" in ds.entity_ids
    assert ds.num_entities == 3


def test_malformed_line_reports_location(tmp_path):
    write_dataset(tmp_path, train=[("a", "r", "b")], valid=[], test=[])
    (tmp_path / "train.txt").write_text("a\tr\tb\nbroken line here\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"train\.txt:2"):
        load_dataset(tmp_path)


def test_blank_lines_skipped(tmp_path):
    (tmp_path / "train.txt").write_text("a\tr\tb\n\n\nb\tr\ta\n", encoding="utf-8")
    (tmp_path / "valid.txt").write_text("", encoding="utf-8")
    (tmp_path / "test.txt").write_text("\n", encoding="utf-8")
    ds = load_dataset(tmp_path)
    assert len(ds.train) == 2
    assert len(ds.valid) == 0
    assert len(ds.test) == 0


def test_missing_file_rejected(tmp_path):
    (tmp_path / "train.txt").write_text("a\tr\tb\n", encoding="utf-8")
    with pytest.raises(ValueError, match="missing dataset file"):
        load_dataset(tmp_path)


def test_cross_split_duplicate_rejected(tmp_path):
    write_dataset(tmp_path, train=[("a", "r", "b")], valid=[("a", "r", "b")], test=[])
    with pytest.raises(ValueError, match="disjoint"):
        load_dataset(tmp_path)
    # the error names the later split's first shared triple in file order, and
    # the split that holds it; repeats within one split are allowed
    train = [[0, 0, 1], [1, 0, 2], [2, 0, 3], [0, 0, 1]]
    cases = [
        ([[3, 0, 0], [2, 0, 3], [1, 0, 2]], [], (2, 0, 3), "train and valid"),
        ([[3, 0, 0], [1, 1, 1]], [[0, 1, 0], [1, 1, 1], [0, 0, 1]], (1, 1, 1), "valid and test"),
        ([[3, 0, 0]], [[0, 1, 0], [1, 0, 2], [3, 0, 0]], (1, 0, 2), "train and test"),
    ]
    for valid, test, triple, splits in cases:
        want = f"triple {triple} appears in both {splits}; splits must be disjoint"
        with pytest.raises(ValueError, match=re.escape(want)):
            make_dataset(train, valid, test, num_entities=4, num_relations=2)


def test_out_of_range_ids_rejected():
    with pytest.raises(ValueError, match="entity id"):
        make_dataset([[0, 0, 9]], [], [], num_entities=3, num_relations=1)
    with pytest.raises(ValueError, match="relation id"):
        make_dataset([[0, 5, 1]], [], [], num_entities=3, num_relations=1)


def test_stats_and_write_stats(tmp_path):
    ds = rand_dataset(seed=3)
    assert ds.stats() == {
        "entities": ds.num_entities,
        "relations": ds.num_relations,
        "train": len(ds.train),
        "valid": len(ds.valid),
        "test": len(ds.test),
    }
    out = tmp_path / "stats.json"
    write_stats(ds, out)
    assert json.loads(out.read_text()) == ds.stats()


def test_split_accessor():
    ds = rand_dataset(seed=4)
    assert ds.split("train") is ds.train
    with pytest.raises(ValueError, match="unknown split"):
        ds.split("dev")


def test_resolve_dataset_literal_env_bundled(tmp_path, monkeypatch):
    write_dataset(tmp_path, train=[("a", "r", "b")], valid=[], test=[])
    assert resolve_dataset(str(tmp_path)) == tmp_path

    root = tmp_path / "store"
    named = root / "mykg"
    named.mkdir(parents=True)
    monkeypatch.setenv(DATA_DIR_ENV, str(root))
    assert resolve_dataset("mykg") == named

    bundled = resolve_dataset("synth")
    assert (bundled / "train.txt").is_file()

    monkeypatch.delenv(DATA_DIR_ENV)
    with pytest.raises(ValueError, match="dataset not found"):
        resolve_dataset("no-such-dataset")


def test_filter_index_matches_brute_force():
    ds = rand_dataset(seed=5, num_entities=10, num_relations=4, n_train=40, n_valid=8, n_test=8)
    every = ds.all_triples().tolist()
    for h, r, t in every[::3]:
        heads = sorted({hh for hh, rr, tt in every if rr == r and tt == t})
        tails = sorted({tt for hh, rr, tt in every if hh == h and rr == r})
        np.testing.assert_array_equal(ds.filter.heads(r, t), heads)
        np.testing.assert_array_equal(ds.filter.tails(h, r), tails)
    assert ds.filter.heads(0, 9999 % ds.num_entities).dtype == np.int64

    # repeated rows, and one head and tail under every relation, all queries
    triples = rand_triples(np.random.default_rng(6), 60, 10, 4)
    triples = np.concatenate([triples, triples[:15], [[3, r, 7] for r in range(4)]])
    index = build_filter_index(triples)
    every = triples.tolist()
    for a in range(10):
        for r in range(4):
            heads = sorted({hh for hh, rr, tt in every if rr == r and tt == a})
            tails = sorted({tt for hh, rr, tt in every if hh == a and rr == r})
            for got, want in ((index.heads(r, a), heads), (index.tails(a, r), tails)):
                assert got.dtype == np.int64
                np.testing.assert_array_equal(got, want)
    # an id past every indexed one must not alias the key of another query
    assert len(index.heads(0, 10)) == 0 and len(index.heads(1, 0)) > 0
    empty = build_filter_index(np.empty((0, 3), dtype=np.int64))
    for got in (empty.heads(0, 0), empty.tails(0, 0)):
        assert got.dtype == np.int64 and len(got) == 0


def test_negative_sampling_shapes_and_slots(rng):
    pos = rand_triples(rng, 7, 20, 3)
    neg = sample_negatives(pos, 5, 20, rng)
    assert neg.heads.shape == neg.rels.shape == neg.tails.shape == neg.slot.shape == (7, 5)
    assert set(np.unique(neg.slot)) <= {0, 1}
    assert neg.per_positive == 5
    fh, fr, ft = neg.flat()
    assert fh.shape == (35,)
    np.testing.assert_array_equal(fr, np.repeat(pos[:, 1], 5))


def test_negative_sampling_never_returns_original_entity(rng):
    pos = rand_triples(rng, 50, 4, 2)
    neg = sample_negatives(pos, 20, 4, rng)
    h = pos[:, 0][:, None]
    t = pos[:, 2][:, None]
    corrupted_head = neg.slot == 0
    assert np.all(neg.heads[corrupted_head] != np.broadcast_to(h, neg.slot.shape)[corrupted_head])
    assert np.all(neg.tails[~corrupted_head] != np.broadcast_to(t, neg.slot.shape)[~corrupted_head])
    # untouched side keeps the original ids
    assert np.all(neg.tails[corrupted_head] == np.broadcast_to(t, neg.slot.shape)[corrupted_head])
    assert np.all(neg.heads[~corrupted_head] == np.broadcast_to(h, neg.slot.shape)[~corrupted_head])


def test_negative_sampling_uniform_over_other_entities():
    rng = np.random.default_rng(0)
    pos = np.array([[2, 0, 5]] * 200, dtype=np.int64)
    neg = sample_negatives(pos, 50, 8, rng)
    # head slot: replacement uniform over the 7 entities != 2
    repl = neg.heads[neg.slot == 0]
    counts = np.bincount(repl, minlength=8)
    assert counts[2] == 0
    expected = repl.size / 7
    assert np.all(np.abs(counts[[0, 1, 3, 4, 5, 6, 7]] - expected) < 5 * np.sqrt(expected))


def test_negative_sampling_determinism():
    pos = rand_triples(np.random.default_rng(1), 6, 9, 2)
    a = sample_negatives(pos, 4, 9, np.random.default_rng(7))
    b = sample_negatives(pos, 4, 9, np.random.default_rng(7))
    for fa, fb in zip(a.flat(), b.flat()):
        np.testing.assert_array_equal(fa, fb)
    np.testing.assert_array_equal(a.slot, b.slot)


def test_negative_sampling_guards():
    pos = np.array([[0, 0, 1]], dtype=np.int64)
    with pytest.raises(ValueError, match="at least one negative"):
        sample_negatives(pos, 0, 5, np.random.default_rng(0))
    with pytest.raises(ValueError, match="fewer than 2 entities"):
        sample_negatives(pos, 1, 1, np.random.default_rng(0))


def test_make_dataset_sizes_inferred():
    ds = make_dataset([[0, 0, 1], [2, 1, 0]], [[1, 0, 2]], [])
    assert ds.num_entities == 3
    assert ds.num_relations == 2
    assert isinstance(ds, Dataset)
    assert isinstance(ds.filter.tails(0, 0), np.ndarray)


def test_negative_batch_flat_roundtrip():
    nb = NegativeBatch(
        heads=np.array([[1, 2]]), rels=np.array([[0, 0]]),
        tails=np.array([[3, 4]]), slot=np.array([[0, 1]]),
    )
    fh, fr, ft = nb.flat()
    np.testing.assert_array_equal(fh, [1, 2])
    np.testing.assert_array_equal(ft, [3, 4])
