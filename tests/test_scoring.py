"""Score kernels: hand-worked values, finite differences, batch identities."""
import numpy as np
import pytest

from cropkge.model import CroppableModel, ScoreFunction, crop_model
from cropkge.scoring import (
    batch_score,
    gather_slots,
    one_vs_all_scores,
    prefix_tables64,
    score,
    score_grad,
)

from conftest import ALL_KINDS, rand_model, rand_triples


def fixed_model(kind, tables, dims, norm="l2"):
    rows = {name: np.asarray(t, dtype=np.float64) for name, t in tables.items()}
    num_entities = rows[next(n for n in rows if n.startswith("entity"))].shape[0]
    num_relations = rows[next(n for n in rows if n.startswith("relation"))].shape[0]
    return CroppableModel(
        score_fn=ScoreFunction(kind, norm=norm),
        dims=dims,
        num_entities=num_entities,
        num_relations=num_relations,
        tables=rows,
    )


def test_transe_hand_value():
    m = fixed_model(
        "transe",
        {"entity": [[1.0, 2.0], [0.0, 0.0]], "relation": [[1.0, 1.0]]},
        dims=(2,),
    )
    # residual (1+1-0, 2+1-0) = (2, 3); l2 norm sqrt(13)
    assert score(m, 1, (0, 0, 1)) == pytest.approx(-np.sqrt(13.0), rel=1e-12)
    m1 = fixed_model(
        "transe",
        {"entity": [[1.0, 2.0], [0.0, 0.0]], "relation": [[1.0, 1.0]]},
        dims=(2,),
        norm="l1",
    )
    assert score(m1, 1, (0, 0, 1)) == pytest.approx(-5.0, rel=1e-12)


def test_simple_hand_value():
    m = fixed_model(
        "simple",
        {
            "entity_head": [[2.0], [1.0]],
            "entity_tail": [[1.0], [1.0]],
            "relation": [[3.0]],
            "relation_inv": [[1.0]],
        },
        dims=(1,),
    )
    # 0.5 * (2*3*1 + 1*1*1) = 3.5
    assert score(m, 1, (0, 0, 1)) == pytest.approx(3.5, rel=1e-12)


def test_pairre_hand_value_and_grad():
    m = fixed_model(
        "pairre",
        {
            "entity": [[2.0], [1.0]],
            "relation_head": [[1.0]],
            "relation_tail": [[1.0]],
        },
        dims=(1,),
    )
    # residual 2*1 - 1*1 = 1; score -1; d(score)/dh = -sign(res)*r_head = -1
    g = score_grad(m, 1, (0, 0, 1))
    assert g.value == pytest.approx(-1.0, rel=1e-12)
    np.testing.assert_allclose(g.partials[("entity", 0)], [-1.0], rtol=1e-12)
    np.testing.assert_allclose(g.partials[("entity", 1)], [1.0], rtol=1e-12)


def test_rotate_matches_complex_arithmetic(rng):
    m = rand_model("rotate", dims=(3, 6), num_entities=5, num_relations=4, seed=21)
    triples = rand_triples(rng, 20, 5, 4)
    for i, d in ((1, 3), (2, 6)):
        got = batch_score(m, i, triples)
        hc = m.tables["entity_re"][triples[:, 0], :d] + 1j * m.tables["entity_im"][triples[:, 0], :d]
        tc = m.tables["entity_re"][triples[:, 2], :d] + 1j * m.tables["entity_im"][triples[:, 2], :d]
        rc = np.exp(1j * m.tables["relation_phase"][triples[:, 1], :d])
        want = -np.linalg.norm(hc * rc - tc, axis=1)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_rotate_relation_is_unit_modulus():
    m = rand_model("rotate", dims=(4,), seed=2)
    rc = np.exp(1j * m.tables["relation_phase"].astype(np.float64))
    np.testing.assert_allclose(np.abs(rc), 1.0, rtol=1e-12)


def test_rotate_l1_counts_re_and_im_separately():
    m = fixed_model(
        "rotate",
        {
            "entity_re": [[1.0], [0.0]],
            "entity_im": [[0.0], [0.0]],
            "relation_phase": [[np.pi / 2.0]],
        },
        dims=(1,),
        norm="l1",
    )
    # h=1 rotated by pi/2 -> i; residual (0, 1) -> l1 norm 1... plus fp eps
    assert score(m, 1, (0, 0, 1)) == pytest.approx(-1.0, abs=1e-12)


def numeric_grad(fn, x0, h=1e-6):
    x0 = np.asarray(x0, dtype=np.float64)
    g = np.zeros_like(x0)
    for j in range(x0.size):
        e = np.zeros_like(x0)
        e.flat[j] = h
        g.flat[j] = (fn(x0 + e) - fn(x0 - e)) / (2.0 * h)
    return g


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("norm", ["l2", "l1"])
def test_gradients_match_finite_differences(kind, norm):
    seed = 100 * ALL_KINDS.index(kind) + (0 if norm == "l2" else 7)
    rng = np.random.default_rng(seed)
    m = rand_model(kind, dims=(2, 4), num_entities=5, num_relations=3,
                   seed=seed + 1, norm=norm, init_range=0.8)
    for trial in range(6):
        h_id, t_id = rng.integers(0, 5, size=2)
        r_id = int(rng.integers(0, 3))
        i = int(rng.integers(1, 3))
        triple = (int(h_id), r_id, int(t_id))
        g = score_grad(m, i, triple)
        for (table, row), analytic in g.partials.items():
            d = m.dims[i - 1]

            def fn(vec, table=table, row=row, d=d):
                saved = m.tables[table][row, :d].copy()
                m.tables[table][row, :d] = vec
                val = score(m, i, triple)
                m.tables[table][row, :d] = saved
                return val

            base = m.tables[table][row, :d].copy()
            if norm == "l1":
                # keep away from the nonsmooth point: skip tiny residuals
                if abs(score(m, i, triple)) < 1e-3:
                    continue
            fd = numeric_grad(fn, base)
            np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-7)


def test_score_equals_batch_score_bitwise(rng):
    for kind in ALL_KINDS:
        m = rand_model(kind, dims=(2, 5), num_entities=6, num_relations=3, seed=17)
        triples = rand_triples(rng, 11, 6, 3)
        for i in (1, 2):
            batched = batch_score(m, i, triples)
            singles = np.array([score(m, i, trip) for trip in triples])
            np.testing.assert_array_equal(batched, singles)


def test_repeated_entity_grads_are_summed():
    m = fixed_model(
        "transe",
        {"entity": [[1.0, 1.0], [0.5, 0.25]], "relation": [[0.0, 0.0]]},
        dims=(2,),
    )
    g = score_grad(m, 1, (0, 0, 0))  # h == t: residual r = 0 is the zero case too
    assert ("entity", 0) in g.partials
    # h + r - t == 0 -> zero-safe l2 gradient is 0 for both slots summed
    np.testing.assert_allclose(g.partials[("entity", 0)], [0.0, 0.0], atol=1e-15)

    m2 = fixed_model(
        "transe",
        {"entity": [[1.0, 1.0], [0.5, 0.25]], "relation": [[0.3, 0.4]]},
        dims=(2,),
    )
    g2 = score_grad(m2, 1, (1, 0, 1))
    # residual = r; d/dh = u, d/dt = -u, summed = 0 for the shared row
    np.testing.assert_allclose(g2.partials[("entity", 1)], [0.0, 0.0], atol=1e-15)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_crop_score_identity_bitwise(kind, rng):
    m = rand_model(kind, dims=(2, 3, 6), num_entities=7, num_relations=3,
                   seed=33, dtype=np.float32)
    triples = rand_triples(rng, 25, 7, 3)
    for d, i in ((2, 1), (3, 2)):
        c = crop_model(m, d)
        np.testing.assert_array_equal(
            batch_score(c, c.n, triples), batch_score(m, i, triples)
        )


def test_one_vs_all_matches_batch(rng):
    for kind in ALL_KINDS:
        m = rand_model(kind, dims=(3,), num_entities=8, num_relations=2, seed=40)
        tables64 = prefix_tables64(m, 3)
        h, r, t = 2, 1, 5
        for side in ("head", "tail"):
            ova = one_vs_all_scores(tables64, kind, m.score_fn.norm, side, (h, r, t))
            assert ova.shape == (8,)
            if side == "head":
                triples = np.array([[e, r, t] for e in range(8)])
            else:
                triples = np.array([[h, r, e] for e in range(8)])
            np.testing.assert_array_equal(ova, batch_score(m, 1, triples))


def test_one_vs_all_side_validation():
    m = rand_model("transe", dims=(2,))
    with pytest.raises(ValueError, match="side"):
        one_vs_all_scores(prefix_tables64(m, 2), "transe", "l2", "middle", (0, 0, 1))


def test_prefix_tables64_width_check():
    m = rand_model("transe", dims=(2, 4))
    assert prefix_tables64(m, 3)["entity"].shape == (6, 3)
    with pytest.raises(ValueError, match="out of range"):
        prefix_tables64(m, 5)


def test_empty_batch():
    m = rand_model("transe", dims=(2,))
    out = batch_score(m, 1, np.empty((0, 3), dtype=np.int64))
    assert out.shape == (0,)
    assert out.dtype == np.float64


def test_id_range_validation():
    m = rand_model("transe", dims=(2,), num_entities=4, num_relations=2)
    with pytest.raises(ValueError, match="entity id"):
        score(m, 1, (9, 0, 1))
    with pytest.raises(ValueError, match="relation id"):
        score(m, 1, (0, 7, 1))
    with pytest.raises(ValueError, match="out of range"):
        batch_score(m, 3, np.array([[0, 0, 1]]))


def test_gather_slots_shapes():
    m = rand_model("simple", dims=(2, 4), num_entities=5, num_relations=2)
    vecs, ids, tables = gather_slots(m, 1, [0, 1], [0, 1], [2, 3])
    assert set(vecs) == {"h_head", "rel", "t_tail", "t_head", "rel_inv", "h_tail"}
    for slot, v in vecs.items():
        assert v.shape == (2, 2)
        assert v.dtype == np.float64
    np.testing.assert_array_equal(ids["h_head"], [0, 1])
    np.testing.assert_array_equal(ids["t_tail"], [2, 3])
    assert tables["rel_inv"] == "relation_inv"


def test_f32_storage_scored_in_f64():
    m = rand_model("transe", dims=(2,), dtype=np.float32)
    s = batch_score(m, 1, np.array([[0, 0, 1]]))
    assert s.dtype == np.float64
    # bit-identical to manual f64 upcast arithmetic
    h = m.tables["entity"][0].astype(np.float64)
    r = m.tables["relation"][0].astype(np.float64)
    t = m.tables["entity"][1].astype(np.float64)
    assert s[0] == -np.sqrt(np.sum((h + r - t) ** 2))
