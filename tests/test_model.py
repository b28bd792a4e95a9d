"""Parameter store: layouts, init, sub-model widths, cropping, reordering."""
import numpy as np
import pytest

from cropkge.data import sample_negatives
from cropkge.evaluate import link_prediction, rank_outcomes, rank_triple
from cropkge.losses import total_loss
from cropkge.model import (
    LAYOUTS,
    ScoreFunction,
    check_schedule,
    crop_model,
    init_model,
    param_count,
    param_count_for,
    reorder_dimensions,
    table_rows,
    with_schedule,
)
from cropkge.scoring import batch_score

from conftest import ALL_KINDS, rand_dataset, rand_model


def test_score_function_validation():
    assert ScoreFunction("transe").norm == "l2"
    with pytest.raises(ValueError, match="unknown score function"):
        ScoreFunction("distmult")
    with pytest.raises(ValueError, match="unknown norm"):
        ScoreFunction("transe", norm="linf")


def test_check_schedule():
    assert check_schedule([1, 2, 3]) == (1, 2, 3)
    assert check_schedule((5,)) == (5,)
    assert check_schedule(np.array([2, 4], dtype=np.int64)) == (2, 4)
    for bad in ([], [0, 1], [2, 2], [3, 1]):
        with pytest.raises(ValueError):
            check_schedule(bad)
    for bad, named in (([2.7, 4.9], "2.7"), ([2, 4.5], "4.5"), ([float("nan")], "nan")):
        with pytest.raises(ValueError, match=f"dimension {named} is not a whole number"):
            check_schedule(bad)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_init_shapes_and_layout(kind):
    m = rand_model(kind, dims=(3, 7), num_entities=5, num_relations=2)
    rows = table_rows(m.score_fn, 5, 2)
    assert list(rows) == [name for name, _ in LAYOUTS[kind]]
    assert set(m.tables) == set(rows)
    for name, count in rows.items():
        assert m.tables[name].shape == (count, 7)
    assert m.n == 2 and m.dim == 7
    assert m.scalars() == {"w1": 1.0, "w2": 1.0, "w3": 1.0}


def test_init_bounds_and_phases():
    m = rand_model("transe", dims=(64,), num_entities=40, num_relations=10, seed=1)
    bound = 1.0 / np.sqrt(64)
    for table in m.tables.values():
        assert np.all(np.abs(table) <= bound)
    r = rand_model("rotate", dims=(64,), num_entities=40, num_relations=10, seed=1)
    phases = r.tables["relation_phase"]
    assert phases.min() >= 0.0 and phases.max() < 2.0 * np.pi
    assert np.abs(r.tables["entity_re"]).max() <= bound

    wide = rand_model("transe", dims=(4,), num_entities=40, init_range=2.0, seed=2)
    assert np.abs(wide.tables["entity"]).max() > 1.0 / np.sqrt(4)
    assert np.abs(wide.tables["entity"]).max() <= 2.0


def test_init_determinism_and_dtype():
    a = rand_model("simple", seed=9, dtype=np.float32)
    b = rand_model("simple", seed=9, dtype=np.float32)
    assert a.dtype == np.float32
    for name in a.tables:
        np.testing.assert_array_equal(a.tables[name], b.tables[name])


def test_init_guards():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="at least one entity"):
        init_model(ScoreFunction("transe"), (2,), 0, 1, rng)


def test_width_maps_each_index_to_its_dimension():
    m = rand_model("transe", dims=(2, 5, 9))
    assert [m.width(i) for i in range(1, m.n + 1)] == [2, 5, 9]
    assert m.width(np.int64(2)) == 5
    for bad in (0, -1, 4, 1.0):
        with pytest.raises(ValueError, match=r"sub-model index .* out of range 1\.\.3"):
            m.width(bad)


def _negatives(m, positives):
    return sample_negatives(positives, 2, m.num_entities, np.random.default_rng(0))


# every public function that takes a sub-model index
INDEX_CALLS = {
    "link_prediction": link_prediction,
    "rank_outcomes": rank_outcomes,
    "rank_triple": lambda m, i, ds: rank_triple(m, i, ds.test[0], ds, "tail"),
    "param_count": lambda m, i, ds: param_count(m, i),
    "batch_score": lambda m, i, ds: batch_score(m, i, ds.test),
    "total_loss": lambda m, i, ds: total_loss(m, i, ds.train[:4], _negatives(m, ds.train[:4])),
}


@pytest.mark.parametrize("call", sorted(INDEX_CALLS))
@pytest.mark.parametrize("which", ["0", "-1", "n+1"])
def test_bad_sub_model_index_is_a_value_error(which, call):
    ds = rand_dataset(seed=3)
    m = rand_model("transe", dims=(2, 4), num_entities=ds.num_entities, num_relations=ds.num_relations)
    i = {"0": 0, "-1": -1, "n+1": m.n + 1}[which]
    with pytest.raises(ValueError, match=f"sub-model index {i} out of range 1..{m.n}"):
        INDEX_CALLS[call](m, i, ds)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_crop_is_bitwise_prefix(kind):
    m = rand_model(kind, dims=(2, 3, 6), seed=4, dtype=np.float32)
    c = crop_model(m, 3)
    assert c.dims == (2, 3)
    for name in m.tables:
        np.testing.assert_array_equal(c.tables[name], m.tables[name][:, :3])
        assert c.tables[name].flags["C_CONTIGUOUS"]
    assert (c.w1, c.w2, c.w3) == (m.w1, m.w2, m.w3)
    with pytest.raises(ValueError, match="not in schedule"):
        crop_model(m, 4)
    # a crop is the schedule cut at d, byte for byte
    for d in m.dims:
        c, s = crop_model(m, d), with_schedule(m, tuple(x for x in m.dims if x <= d))
        assert (c.dims, c.scalars()) == (s.dims, s.scalars())
        for name in m.tables:
            assert c.tables[name].dtype == s.tables[name].dtype
            assert c.tables[name].tobytes() == s.tables[name].tobytes()


def test_with_schedule_reinterprets():
    m = rand_model("pairre", dims=(2, 8), seed=5)
    s = with_schedule(m, (1, 3, 5))
    assert s.dims == (1, 3, 5)
    assert s.dim == 5
    for name in m.tables:
        np.testing.assert_array_equal(s.tables[name], m.tables[name][:, :5])
    with pytest.raises(ValueError, match="exceeds table width"):
        with_schedule(m, (4, 16))


def test_reorder_dimensions_descending_stable():
    m = rand_model("simple", dims=(4,), seed=6)
    importance = np.array([0.1, 0.9, 0.9, 0.4])
    r = reorder_dimensions(m, importance)
    # stable argsort of (-importance): ties keep original order
    expected_order = [1, 2, 3, 0]
    for name in m.tables:
        np.testing.assert_array_equal(r.tables[name], m.tables[name][:, expected_order])
    with pytest.raises(ValueError, match="length"):
        reorder_dimensions(m, importance[:2])
    with pytest.raises(ValueError, match="non-finite"):
        reorder_dimensions(m, np.array([0.0, np.nan, 1.0, 2.0]))


def test_reorder_applies_same_permutation_everywhere():
    m = rand_model("rotate", dims=(3,), seed=7)
    importance = np.array([1.0, 3.0, 2.0])
    r = reorder_dimensions(m, importance)
    order = [1, 2, 0]
    for name in ("entity_re", "entity_im", "relation_phase"):
        np.testing.assert_array_equal(r.tables[name], m.tables[name][:, order])


def test_param_count_by_layout():
    cases = {
        "transe": (6 + 3) * 4,
        "simple": (2 * 6 + 2 * 3) * 4,
        "rotate": (2 * 6 + 3) * 4,
        "pairre": (6 + 2 * 3) * 4,
    }
    for kind, expected in cases.items():
        m = rand_model(kind, dims=(2, 4), num_entities=6, num_relations=3)
        assert param_count(m) == expected
        assert param_count(m, 1) == expected // 2
    # large-scale arithmetic: complex-valued entities at width 1000
    assert param_count_for(ScoreFunction("rotate"), 14541, 237, 1000) == 29_319_000


def test_copy_is_independent():
    m = rand_model("transe", dims=(2,))
    c = m.copy()
    c.tables["entity"][0, 0] += 1.0
    c.w1 = 5.0
    assert m.tables["entity"][0, 0] != c.tables["entity"][0, 0]
    assert m.w1 == 1.0


def test_model_validation_errors():
    m = rand_model("transe", dims=(2,))
    bad = dict(m.tables)
    del bad["relation"]
    with pytest.raises(ValueError, match="do not match layout"):
        type(m)(score_fn=m.score_fn, dims=m.dims, num_entities=m.num_entities,
                num_relations=m.num_relations, tables=bad)
    wrong = {k: v.copy() for k, v in m.tables.items()}
    wrong["entity"] = wrong["entity"][:, :1]
    with pytest.raises(ValueError, match="shape"):
        type(m)(score_fn=m.score_fn, dims=m.dims, num_entities=m.num_entities,
                num_relations=m.num_relations, tables=wrong)
